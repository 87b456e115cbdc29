package sim

import (
	"math"
	"strings"
	"testing"

	"perple/internal/core"
	"perple/internal/litmus"
	"perple/internal/memmodel"
)

// runSynced compiles the test and runs it once on a fresh Runner, so
// the result owns its memory.
func runSynced(t *litmus.Test, n int, mode Mode, cfg Config) (*SyncedResult, error) {
	ct, err := Compile(t)
	if err != nil {
		return nil, err
	}
	return NewRunner(ct).RunSynced(n, mode, cfg)
}

// runPerpetual compiles the perpetual test and runs it once on a fresh
// PerpetualRunner.
func runPerpetual(pt *core.PerpetualTest, n int, cfg Config) (*PerpetualResult, error) {
	cp, err := CompilePerpetual(pt)
	if err != nil {
		return nil, err
	}
	return NewPerpetualRunner(cp).Run(n, cfg)
}

func mustSuiteTest(t *testing.T, name string) *litmus.Test {
	t.Helper()
	test, err := litmus.SuiteTest(name)
	if err != nil {
		t.Fatal(err)
	}
	return test
}

func mustPerp(t *testing.T, name string) *core.PerpetualTest {
	t.Helper()
	pt, err := core.Convert(mustSuiteTest(t, name))
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func TestModeStringsAndParse(t *testing.T) {
	for _, m := range Modes {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode accepted bogus mode")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := DefaultConfig()
	bad.InstrCostMin = 0
	if _, err := runSynced(mustSuiteTest(t, "sb"), 1, ModeUser, bad); err == nil {
		t.Error("invalid config accepted")
	}
	bad = DefaultConfig()
	bad.DrainMax = bad.DrainMin - 1
	if _, err := runSynced(mustSuiteTest(t, "sb"), 1, ModeUser, bad); err == nil {
		t.Error("invalid drain range accepted")
	}
	bad = DefaultConfig()
	bad.PreemptProb = 2
	if _, err := runSynced(mustSuiteTest(t, "sb"), 1, ModeUser, bad); err == nil {
		t.Error("invalid preemption probability accepted")
	}
}

func TestRunSyncedZeroIterations(t *testing.T) {
	res, err := runSynced(mustSuiteTest(t, "sb"), 0, ModeUser, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 0 || res.Ticks != 0 {
		t.Errorf("zero-iteration run: N=%d ticks=%d", res.N, res.Ticks)
	}
	if _, err := runSynced(mustSuiteTest(t, "sb"), -1, ModeUser, DefaultConfig()); err == nil {
		t.Error("negative iteration count accepted")
	}
	// Rejected before any allocation: cell indices must fit in int32.
	if _, err := runSynced(mustSuiteTest(t, "sb"), math.MaxInt32, ModeUser, DefaultConfig()); err == nil {
		t.Error("iteration count past the int32 cell range accepted")
	}
}

func TestDeterminism(t *testing.T) {
	test := mustSuiteTest(t, "sb")
	cfg := DefaultConfig().WithSeed(77)
	a, err := runSynced(test, 500, ModeUser, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSynced(test, 500, ModeUser, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ticks != b.Ticks {
		t.Errorf("ticks differ across identical runs: %d vs %d", a.Ticks, b.Ticks)
	}
	for ti := range a.Regs {
		for i := range a.Regs[ti] {
			if a.Regs[ti][i] != b.Regs[ti][i] {
				t.Fatalf("register history differs at thread %d index %d", ti, i)
			}
		}
	}
	c, err := runSynced(test, 500, ModeUser, cfg.WithSeed(78))
	if err != nil {
		t.Fatal(err)
	}
	same := a.Ticks == c.Ticks
	for ti := range a.Regs {
		for i := range a.Regs[ti] {
			if a.Regs[ti][i] != c.Regs[ti][i] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestPerpetualDeterminism(t *testing.T) {
	pt := mustPerp(t, "sb")
	cfg := DefaultConfig().WithSeed(5)
	a, err := runPerpetual(pt, 1000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runPerpetual(pt, 1000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ticks != b.Ticks {
		t.Errorf("perpetual ticks differ: %d vs %d", a.Ticks, b.Ticks)
	}
	for ti := range a.Bufs.Bufs {
		for i := range a.Bufs.Bufs[ti] {
			if a.Bufs.Bufs[ti][i] != b.Bufs.Bufs[ti][i] {
				t.Fatalf("buf differs at thread %d index %d", ti, i)
			}
		}
	}
}

// regKeySet projects model results onto register-file keys.
func regKeySet(rs []memmodel.Result) map[string]bool {
	set := map[string]bool{}
	for _, r := range rs {
		set[flattenRegs(r.Regs)] = true
	}
	return set
}

func flattenRegs(regs [][]int64) string {
	b := make([]byte, 0, 32)
	for _, rs := range regs {
		for _, v := range rs {
			b = append(b, byte('0'+v), ',')
		}
		b = append(b, '|')
	}
	return string(b)
}

// TestSyncedRunsAreTSOCompliant: every per-iteration outcome the
// simulated machine produces, in every synchronization mode, must be in
// the TSO-allowed set computed by the independent model checkers. This is
// the sim's soundness proof obligation: no false positives can ever come
// out of the substrate.
func TestSyncedRunsAreTSOCompliant(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 80
	}
	for _, e := range litmus.Suite() {
		e := e
		t.Run(e.Test.Name, func(t *testing.T) {
			allowed := regKeySet(memmodel.OperationalAllowedSet(e.Test, memmodel.TSO))
			for _, mode := range Modes {
				res, err := runSynced(e.Test, iters, mode, DefaultConfig().WithSeed(int64(mode)+100))
				if err != nil {
					t.Fatal(err)
				}
				var scratch [][]int64
				for n := 0; n < iters; n++ {
					scratch = res.RegisterFile(n, scratch)
					if key := flattenRegs(scratch); !allowed[key] {
						t.Fatalf("mode %v iteration %d produced TSO-forbidden register file %q", mode, n, key)
					}
				}
			}
		})
	}
}

// TestSyncedMemoryIsTSOCompliant extends the check to final per-iteration
// memory for the final-state (non-convertible) tests.
func TestSyncedMemoryIsTSOCompliant(t *testing.T) {
	iters := 300
	if testing.Short() {
		iters = 60
	}
	for _, test := range litmus.NonConvertible() {
		test := test
		t.Run(test.Name, func(t *testing.T) {
			results := memmodel.OperationalAllowedSet(test, memmodel.TSO)
			type pair struct{ regs, mem string }
			allowed := map[pair]bool{}
			for _, r := range results {
				mem := make([]byte, 0, 16)
				for _, loc := range test.Locs() {
					mem = append(mem, byte('0'+r.Mem[loc]), ',')
				}
				allowed[pair{flattenRegs(r.Regs), string(mem)}] = true
			}
			res, err := runSynced(test, iters, ModeTimebase, DefaultConfig().WithSeed(9))
			if err != nil {
				t.Fatal(err)
			}
			var scratch [][]int64
			for n := 0; n < iters; n++ {
				scratch = res.RegisterFile(n, scratch)
				mem := make([]byte, 0, 16)
				for li := range res.Locs {
					mem = append(mem, byte('0'+res.Mem[li*res.N+n]), ',')
				}
				p := pair{flattenRegs(scratch), string(mem)}
				if !allowed[p] {
					t.Fatalf("iteration %d produced TSO-forbidden state %+v", n, p)
				}
			}
		})
	}
}

// TestSyncedObservesSBTarget: the aligned modes must expose the classic
// store-buffering outcome within a reasonable number of iterations.
func TestSyncedObservesSBTarget(t *testing.T) {
	test := mustSuiteTest(t, "sb")
	res, err := runSynced(test, 2000, ModeTimebase, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	var scratch [][]int64
	for n := 0; n < res.N; n++ {
		scratch = res.RegisterFile(n, scratch)
		if test.Target.Holds(scratch) {
			hits++
		}
	}
	if hits == 0 {
		t.Error("timebase mode never observed the sb target in 2000 iterations")
	}
}

// TestPerpetualValuesDecode: every non-zero value loaded in a perpetual
// run must lie on one of its location's arithmetic sequences with an
// iteration index inside the run.
func TestPerpetualValuesDecode(t *testing.T) {
	for _, name := range []string{"sb", "amd3", "mp", "iriw", "podwr001"} {
		pt := mustPerp(t, name)
		const n = 2000
		res, err := runPerpetual(pt, n, DefaultConfig().WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		for _, ti := range pt.LoadThreads {
			r := pt.Reads[ti]
			for i, v := range res.Bufs.Bufs[ti] {
				if v == 0 {
					continue
				}
				loc := pt.LoadLoc[ti][i%r]
				_, iter, ok := core.DecodeValue(pt, loc, v)
				if !ok {
					t.Fatalf("%s: thread %d slot %d holds undecodable value %d", name, ti, i, v)
				}
				if iter < 0 || iter >= n {
					t.Fatalf("%s: value %d decodes to out-of-run iteration %d", name, v, iter)
				}
			}
		}
	}
}

// TestPerpetualMonotoneReads: within one thread, successive reads of the
// same location must observe non-decreasing iterations (coherence — the
// global store order of a location is iteration order per storing
// thread).
func TestPerpetualMonotoneReads(t *testing.T) {
	pt := mustPerp(t, "sb")
	const n = 5000
	res, err := runPerpetual(pt, n, DefaultConfig().WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, ti := range pt.LoadThreads {
		prev := int64(-1)
		for i, v := range res.Bufs.Bufs[ti] {
			var iter int64 = -1
			if v != 0 {
				_, it, ok := core.DecodeValue(pt, pt.LoadLoc[ti][i%pt.Reads[ti]], v)
				if !ok {
					t.Fatal("undecodable value")
				}
				iter = it
			}
			if iter < prev {
				t.Fatalf("thread %d read iteration %d after %d (coherence violation)", ti, iter, prev)
			}
			prev = iter
		}
	}
}

func TestRunPerpetualZeroAndNegative(t *testing.T) {
	pt := mustPerp(t, "sb")
	res, err := runPerpetual(pt, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Bufs.N != 0 {
		t.Error("zero-iteration perpetual run has data")
	}
	if _, err := runPerpetual(pt, -2, DefaultConfig()); err == nil {
		t.Error("negative iteration count accepted")
	}
}

// TestTickOrdering: the relative runtimes of the modes must follow the
// calibrated cost model: pthread ≫ timebase > user ≈ userfence > none.
func TestTickOrdering(t *testing.T) {
	test := mustSuiteTest(t, "sb")
	ticks := map[Mode]int64{}
	for _, mode := range Modes {
		res, err := runSynced(test, 2000, mode, DefaultConfig().WithSeed(4))
		if err != nil {
			t.Fatal(err)
		}
		ticks[mode] = res.Ticks
	}
	if !(ticks[ModePthread] > ticks[ModeTimebase] &&
		ticks[ModeTimebase] > ticks[ModeUser] &&
		ticks[ModeUser] > ticks[ModeNone]) {
		t.Errorf("tick ordering wrong: %v", ticks)
	}
	pt := mustPerp(t, "sb")
	pres, err := runPerpetual(pt, 2000, DefaultConfig().WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if pres.Ticks >= ticks[ModeNone] {
		t.Errorf("perpetual execution (%d ticks) not faster than litmus7 none (%d ticks)", pres.Ticks, ticks[ModeNone])
	}
}

func TestMemAt(t *testing.T) {
	test := mustSuiteTest(t, "sb")
	res, err := runSynced(test, 5, ModeUser, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < res.N; n++ {
		mem := res.MemAt(n)
		// After settle, every iteration's cells hold the stored 1s.
		if mem["x"] != 1 || mem["y"] != 1 {
			t.Errorf("iteration %d final memory = %v, want x=1 y=1", n, mem)
		}
	}
}

func TestTraceEventStrings(t *testing.T) {
	events := []TraceEvent{
		{Kind: TraceStore, Loc: "x", Value: 3, DrainAt: 9},
		{Kind: TraceDrain, Loc: "x", Value: 3},
		{Kind: TraceLoad, Loc: "y", Value: 0, Forwarded: true},
		{Kind: TraceFence},
		{Kind: TracePreempt, Value: 500},
	}
	wants := []string{"store [x] <- 3", "drain [x] = 3", "(fwd)", "mfence", "preempted for 500"}
	for i, e := range events {
		if s := e.String(); !strings.Contains(s, wants[i]) {
			t.Errorf("event %d renders %q, want %q inside", i, s, wants[i])
		}
	}
	for k := TraceStore; k <= TracePreempt; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has no name", int(k))
		}
	}
}
