package sim

import (
	"reflect"
	"slices"
	"testing"

	"perple/internal/core"
	"perple/internal/litmus"
	"perple/internal/memmodel"
)

func mustCompile(t *testing.T, test *litmus.Test) *CompiledTest {
	t.Helper()
	ct, err := Compile(test)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func mustCompilePerpetual(t *testing.T, pt *core.PerpetualTest) *CompiledPerpetual {
	t.Helper()
	cp, err := CompilePerpetual(pt)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func sbTest(t *testing.T) *litmus.Test {
	t.Helper()
	test, err := litmus.SuiteTest("sb")
	if err != nil {
		t.Fatalf("SuiteTest(sb): %v", err)
	}
	return test
}

// cloneSynced deep-copies a result so it survives runner reuse.
func cloneSynced(res *SyncedResult) *SyncedResult {
	out := *res
	out.Mem = append([]int64(nil), res.Mem...)
	out.Regs = make([][]int64, len(res.Regs))
	for i, r := range res.Regs {
		out.Regs[i] = append([]int64(nil), r...)
	}
	return &out
}

func TestRunnerReuseDeterministic(t *testing.T) {
	test := sbTest(t)
	ct, err := Compile(test)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(ct)
	cfg := DefaultConfig().WithSeed(42)
	first, err := r.RunSynced(500, ModeUser, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := cloneSynced(first)
	// Interleave a differently-shaped run to dirty every reused array.
	if _, err := r.RunSynced(123, ModeNone, DefaultConfig().WithSeed(7)); err != nil {
		t.Fatal(err)
	}
	again, err := r.RunSynced(500, ModeUser, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.Regs, again.Regs) || !reflect.DeepEqual(snap.Mem, again.Mem) || snap.Ticks != again.Ticks {
		t.Fatal("rerun on a reused Runner differs from its first run")
	}
}

// TestRunnerMatchesPackageRun holds one Runner, reused across every
// mode in turn, to a fresh compile-and-run per mode.
func TestRunnerMatchesPackageRun(t *testing.T) {
	test := sbTest(t)
	cfg := DefaultConfig().WithSeed(99)
	r := NewRunner(mustCompile(t, test))
	for _, mode := range []Mode{ModeUser, ModeUserFence, ModePthread, ModeTimebase, ModeNone} {
		fresh, err := runSynced(test, 300, mode, cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		reused, err := r.RunSynced(300, mode, cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !reflect.DeepEqual(fresh.Regs, reused.Regs) || fresh.Ticks != reused.Ticks {
			t.Fatalf("%v: reused Runner differs from a fresh one", mode)
		}
	}
}

func TestRunnerSteadyStateAllocs(t *testing.T) {
	test := sbTest(t)
	ct, err := Compile(test)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(ct)
	cfg := DefaultConfig().WithSeed(3)
	// Warm up so every backing array reaches steady-state capacity.
	if _, err := r.RunSynced(200, ModeUser, cfg); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := r.RunSynced(200, ModeUser, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2 {
		t.Fatalf("steady-state Runner run allocates %.1f times, want ≤ 2", avg)
	}
}

func TestPerpetualRunnerReuseDeterministic(t *testing.T) {
	pt := mustPerp(t, "sb")
	cp, err := CompilePerpetual(pt)
	if err != nil {
		t.Fatal(err)
	}
	r := NewPerpetualRunner(cp)
	cfg := DefaultConfig().WithSeed(21)
	first, err := r.Run(300, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Results alias the runner until its next run: keep a copy.
	firstBufs, firstTicks := cloneBufs(first.Bufs), first.Ticks
	if _, err := r.Run(77, DefaultConfig().WithSeed(2)); err != nil {
		t.Fatal(err)
	}
	again, err := r.Run(300, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(firstBufs, again.Bufs) || firstTicks != again.Ticks {
		t.Fatal("rerun on a reused PerpetualRunner differs from its first run")
	}
	fresh, err := runPerpetual(pt, 300, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Bufs, again.Bufs) || fresh.Ticks != again.Ticks {
		t.Fatal("reused PerpetualRunner differs from a fresh one")
	}
}

// cloneBufs deep-copies a BufSet so it survives runner reuse.
func cloneBufs(bs *core.BufSet) *core.BufSet {
	out := &core.BufSet{N: bs.N, Bufs: make([][]int64, len(bs.Bufs))}
	for t, b := range bs.Bufs {
		if b != nil {
			out.Bufs[t] = append([]int64(nil), b...)
		}
	}
	return out
}

// retargetTests switches thread counts (2, 3, 4), location counts,
// fences, store-only threads and preset models between consecutive
// runs.
var retargetTests = []struct {
	name string
	n    int
	pso  bool
	wit  int
}{
	{"iriw", 700, false, 3},
	{"sb", 500, false, 0},
	{"wrc", 900, true, 0},
	{"safe022", 1200, false, 5},
	{"mp+fences", 400, true, 2},
	{"iriw", 300, true, 0},
	{"sb", 1500, false, 1},
}

// TestRunnerRetargetMatchesFresh drives one Runner through a sequence
// of tests via Retarget and requires every run to hash like a fresh
// runner's, witnesses included.
func TestRunnerRetargetMatchesFresh(t *testing.T) {
	var r *Runner
	for i, tc := range retargetTests {
		test := mustSuiteTest(t, tc.name)
		ct := mustCompile(t, test)
		if r == nil {
			r = NewRunner(ct)
		} else {
			r.Retarget(ct)
		}
		cfg := DefaultConfig().WithSeed(int64(i + 3))
		if tc.pso {
			cfg.Relaxation = memmodel.PSO
		}
		cfg.WitnessEvery = tc.wit
		mode := Modes[i%len(Modes)]
		got, err := r.RunSynced(tc.n, mode, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runSynced(test, tc.n, mode, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if hashSynced(got) != hashSynced(want) || got.Ticks != want.Ticks {
			t.Fatalf("step %d (%s %s): retargeted runner differs from a fresh one", i, tc.name, mode)
		}
	}
}

// TestPerpetualRunnerRetargetMatchesFresh is the perpetual counterpart:
// one PerpetualRunner, its rings and its buf arrays, across tests.
func TestPerpetualRunnerRetargetMatchesFresh(t *testing.T) {
	var r *PerpetualRunner
	for i, tc := range retargetTests {
		pt := mustPerp(t, tc.name)
		cp, err := CompilePerpetual(pt)
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			r = NewPerpetualRunner(cp)
		} else {
			r.Retarget(cp)
		}
		cfg := DefaultConfig().WithSeed(int64(i + 3))
		if tc.pso {
			cfg.Relaxation = memmodel.PSO
		}
		got, err := r.Run(tc.n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runPerpetual(pt, tc.n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if hashPerpetual(got) != hashPerpetual(want) || !sameBufs(got.Bufs, want.Bufs) {
			t.Fatalf("step %d (%s): retargeted perpetual runner differs from a fresh one", i, tc.name)
		}
	}
}

// sameBufs reports whether two buf sets hold the same N and, per thread,
// buffers of the same length and contents. A store-only thread's buffer
// is empty: nil on a fresh runner, a kept zero-length array on a reused
// one, and the two compare equal.
func sameBufs(a, b *core.BufSet) bool {
	return a.N == b.N && slices.EqualFunc(a.Bufs, b.Bufs, slices.Equal[[]int64])
}
