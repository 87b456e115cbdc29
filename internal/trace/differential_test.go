// Differential ground truth for the streaming checker. The tests here
// are external (package trace_test) so they can drive internal/sim —
// which itself imports trace — and internal/axiom:
//
//   - every witness the simulator emits on the suite and a generated
//     corpus must be accepted under TSO (the machine implements TSO, so
//     a rejection is a checker or recorder bug);
//   - every witness the axiomatic enumerator deems TSO- or
//     PSO-consistent must be accepted under that model after conversion;
//   - machine and mutated witnesses must agree, under SC, TSO and PSO,
//     with an independent quadratic checker written from the AST, and
//     guaranteed-inconsistent mutations must be rejected;
//   - a PSO-configured machine must verify clean under PSO and produce
//     at least one reported TSO violation with a cycle report
//     (fault-injection self-test, the trace plane's analogue of the
//     oracle's PSO test).
package trace_test

import (
	"math/rand"
	"strings"
	"testing"

	"perple/internal/axiom"
	"perple/internal/litmus"
	"perple/internal/memmodel"
	"perple/internal/sim"
	"perple/internal/trace"
)

// corpus returns the differential corpus: the full perpetual suite plus
// a deterministic generated batch.
func corpus(t *testing.T) []*litmus.Test {
	t.Helper()
	var tests []*litmus.Test
	for _, e := range litmus.Suite() {
		tests = append(tests, e.Test)
	}
	rng := rand.New(rand.NewSource(42))
	tests = append(tests, litmus.GenerateCorpus(rng, litmus.DefaultGenConfig(), "tracegen", 60)...)
	return tests
}

// ----- independent quadratic reference checker -----

// naiveEvents flattens a test into (thread, index, kind, loc) tuples in
// the same dense order the trace layout uses, rebuilt here from the AST
// so the reference shares no code with the implementation under test.
type naiveEvent struct {
	thread, index int
	kind          litmus.OpKind
	loc           litmus.Loc
}

func naiveFlatten(tc *litmus.Test) (events []naiveEvent, loadEv, storeEv []int) {
	for ti, th := range tc.Threads {
		for ii, in := range th.Instrs {
			ev := len(events)
			events = append(events, naiveEvent{ti, ii, in.Kind, in.Loc})
			switch in.Kind {
			case litmus.OpLoad:
				loadEv = append(loadEv, ev)
			case litmus.OpStore:
				storeEv = append(storeEv, ev)
			}
		}
	}
	return
}

// naiveConsistent decides witness consistency by brute force: build the
// model's full relation union as an adjacency matrix (po pairs by double
// loop, fences found by scanning between each relaxed pair, fr as load →
// every co-later store) and DFS for a cycle. O(events²) per witness —
// the reference the near-linear checker must agree with. It reads the
// models from the AST and this comment, not from memmodel: SC is po ∪
// rf ∪ co ∪ fr; TSO and PSO are coherence (po-loc ∪ rf ∪ co ∪ fr) plus
// ghb, where ghb drops unfenced store→load po (and, under PSO, unfenced
// store→store po between different locations) and keeps external rf
// only.
func naiveConsistent(tc *litmus.Test, rf, co []int32, model memmodel.Model) bool {
	events, loadEv, storeEv := naiveFlatten(tc)
	n := len(events)

	adj := func() [][]bool {
		m := make([][]bool, n)
		for i := range m {
			m[i] = make([]bool, n)
		}
		return m
	}
	cyclic := func(m [][]bool) bool {
		state := make([]int, n) // 0 unvisited, 1 on stack, 2 done
		var dfs func(int) bool
		dfs = func(u int) bool {
			state[u] = 1
			for v := 0; v < n; v++ {
				if !m[u][v] {
					continue
				}
				if state[v] == 1 || (state[v] == 0 && dfs(v)) {
					return true
				}
			}
			state[u] = 2
			return false
		}
		for u := 0; u < n; u++ {
			if state[u] == 0 && dfs(u) {
				return true
			}
		}
		return false
	}

	// coPos[s] is store s's rank in its location's coherence order.
	coPos := make([]int, len(storeEv))
	perLoc := map[litmus.Loc][]int32{}
	for _, st := range co {
		loc := events[storeEv[st]].loc
		coPos[st] = len(perLoc[loc])
		perLoc[loc] = append(perLoc[loc], st)
	}
	coAfter := func(a, b int32) bool { // is store b co-after store a (same loc)?
		return coPos[b] > coPos[a]
	}

	addDynamic := func(m [][]bool, externalOnly bool) {
		for k, src := range rf {
			if src >= 0 {
				if !externalOnly || events[storeEv[src]].thread != events[loadEv[k]].thread {
					m[storeEv[src]][loadEv[k]] = true
				}
			}
			// fr: the load precedes every store co-after its source.
			loc := events[loadEv[k]].loc
			for _, st := range perLoc[loc] {
				if src < 0 || coAfter(src, st) {
					m[loadEv[k]][storeEv[st]] = true
				}
			}
		}
		for _, sts := range perLoc {
			for i := 0; i < len(sts); i++ {
				for j := i + 1; j < len(sts); j++ {
					m[storeEv[sts[i]]][storeEv[sts[j]]] = true
				}
			}
		}
	}

	if model == memmodel.SC {
		m := adj()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if events[i].thread == events[j].thread {
					m[i][j] = true
				}
			}
		}
		addDynamic(m, false)
		return !cyclic(m)
	}

	// Coherence: po restricted to same location, plus all dynamic edges.
	m := adj()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if events[i].thread == events[j].thread && events[i].loc != "" && events[i].loc == events[j].loc {
				m[i][j] = true
			}
		}
	}
	addDynamic(m, false)
	if cyclic(m) {
		return false
	}

	// ghb: ppo (po minus the model's unfenced relaxed pairs), external
	// rf, co, fr.
	g := adj()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if events[i].thread != events[j].thread {
				continue
			}
			if events[i].kind == litmus.OpStore {
				relaxed := events[j].kind == litmus.OpLoad ||
					(model == memmodel.PSO && events[j].kind == litmus.OpStore && events[j].loc != events[i].loc)
				fenced := false
				for k := i + 1; k < j; k++ {
					fenced = fenced || events[k].kind == litmus.OpFence
				}
				if relaxed && !fenced {
					continue
				}
			}
			g[i][j] = true
		}
	}
	addDynamic(g, true)
	return !cyclic(g)
}

// ----- sim-emitted witnesses -----

// runWitnessed executes n synced iterations with full witness recording
// and returns the result (aliasing the runner's buffers).
func runWitnessed(t *testing.T, tc *litmus.Test, n int, mode sim.Mode, cfg sim.Config) (*sim.CompiledTest, *sim.SyncedResult) {
	t.Helper()
	ct, err := sim.Compile(tc)
	if err != nil {
		t.Fatalf("%s: %v", tc.Name, err)
	}
	cfg.WitnessEvery = 1
	res, err := sim.NewRunner(ct).RunSynced(n, mode, cfg)
	if err != nil {
		t.Fatalf("%s: %v", tc.Name, err)
	}
	return ct, res
}

// TestSimWitnessesAcceptedTSO: the machine implements TSO, so every
// witness it emits — across barrier modes and the free-running mode,
// on the suite and generated shapes alike — must pass the checker.
func TestSimWitnessesAcceptedTSO(t *testing.T) {
	checked := 0
	for _, tc := range corpus(t) {
		for _, mode := range []sim.Mode{sim.ModeUser, sim.ModeTimebase, sim.ModeNone} {
			cfg := sim.DefaultConfig().WithSeed(int64(len(tc.Name)) + 11)
			ct, res := runWitnessed(t, tc, 40, mode, cfg)
			c, err := trace.NewCheckerLayout(ct.WitnessLayout(), memmodel.TSO)
			if err != nil {
				t.Fatalf("%s: %v", tc.Name, err)
			}
			for s := 0; s < res.Witnesses.Slots; s++ {
				v, err := c.Check(res.Witnesses, s)
				if err != nil {
					t.Fatalf("%s/%s slot %d: malformed sim witness: %v", tc.Name, mode, s, err)
				}
				if v != nil {
					t.Fatalf("%s/%s slot %d: sim witness rejected:\n%s", tc.Name, mode, s, v.Format())
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no witnesses checked")
	}
	t.Logf("accepted %d sim witnesses", checked)
}

// TestSimWitnessesAgreeWithNaive holds the near-linear checker to the
// quadratic reference on genuine machine output under every model. The
// machine implements TSO, so under TSO and PSO the reference must accept
// every witness too — this validates the reference itself.
func TestSimWitnessesAgreeWithNaive(t *testing.T) {
	for _, e := range litmus.Suite() {
		tc := e.Test
		ct, res := runWitnessed(t, tc, 10, sim.ModeUser, sim.DefaultConfig())
		for _, m := range memmodel.Models {
			c, err := trace.NewCheckerLayout(ct.WitnessLayout(), m)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < res.Witnesses.Slots; s++ {
				want := naiveConsistent(tc, res.Witnesses.RFAt(s), res.Witnesses.CoAt(s), m)
				if m != memmodel.SC && !want {
					t.Fatalf("%s slot %d: reference checker rejected a machine witness under %v", tc.Name, s, m)
				}
				v, err := c.Check(res.Witnesses, s)
				if err != nil || (v == nil) != want {
					t.Fatalf("%s slot %d under %v: checker (%v, err %v) disagrees with reference %v", tc.Name, s, m, v, err, want)
				}
			}
		}
	}
}

// ----- axiom-enumerated witnesses -----

// convertAxiomWitness re-expresses an axiom witness in trace encoding.
func convertAxiomWitness(t *testing.T, l *trace.Layout, w *axiom.Witness) (rf, co []int32) {
	t.Helper()
	// (thread, index) → dense indices, rebuilt from the AST.
	loadIdx := map[memmodel.EventRef]int32{}
	storeIdx := map[memmodel.EventRef]int32{}
	var nl, ns int32
	for ti, th := range w.Test.Threads {
		for ii, in := range th.Instrs {
			ref := memmodel.EventRef{Thread: ti, Index: ii}
			switch in.Kind {
			case litmus.OpLoad:
				loadIdx[ref] = nl
				nl++
			case litmus.OpStore:
				storeIdx[ref] = ns
				ns++
			}
		}
	}
	rf = make([]int32, l.NLoads())
	for k, e := range w.RF {
		if e.Store.IsInit() {
			rf[k] = -1
		} else {
			rf[k] = storeIdx[e.Store]
		}
	}
	// Concatenating the per-location orders in sorted location order is a
	// valid global drain order: co only constrains within a location.
	for _, loc := range l.Locs() {
		for _, ref := range w.WS[loc] {
			co = append(co, storeIdx[ref])
		}
	}
	return rf, co
}

// checkOne validates a one-slot witness built from rf and co.
func checkOne(c *trace.Checker, rf, co []int32) (*trace.Violation, error) {
	w := trace.NewWitnessSet(c.Layout())
	w.Reset(1, 1)
	copy(w.RF, rf)
	copy(w.Co, co)
	return c.Check(w, 0)
}

// TestAxiomWitnessesAccepted: every execution the exact enumerator
// finds TSO-consistent (Analyze's witnesses) or PSO-consistent
// (AllowedSet's) must also satisfy the streaming checker for that model.
func TestAxiomWitnessesAccepted(t *testing.T) {
	checked := 0
	accept := func(c *trace.Checker, aw *axiom.Witness) {
		t.Helper()
		rf, co := convertAxiomWitness(t, c.Layout(), aw)
		v, err := checkOne(c, rf, co)
		if err != nil {
			t.Fatalf("%s under %v: converted axiom witness malformed: %v", aw.Test.Name, c.Model(), err)
		}
		if v != nil {
			t.Fatalf("%s: axiom-consistent witness rejected:\n%s\naxiom witness:\n%s", aw.Test.Name, v.Format(), aw.Format())
		}
		checked++
	}
	for _, tc := range corpus(t) {
		rep, err := axiom.Analyze(tc)
		if err != nil {
			if _, tooBig := err.(*axiom.TooLargeError); tooBig {
				continue
			}
			t.Fatalf("%s: %v", tc.Name, err)
		}
		l, err := trace.NewLayout(tc)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		tso, err := trace.NewCheckerLayout(l, memmodel.TSO)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		for _, oc := range rep.Outcomes {
			if aw := rep.WitnessFor(oc.Outcome); oc.Class != axiom.Forbidden && aw != nil {
				accept(tso, aw)
			}
		}
		psoSet, err := axiom.AllowedSet(tc, memmodel.PSO)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		pso, err := trace.NewCheckerLayout(tso.Layout(), memmodel.PSO)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		for _, res := range psoSet {
			accept(pso, res.WitnessWeak)
		}
	}
	if checked == 0 {
		t.Fatal("no axiom witnesses checked")
	}
	t.Logf("accepted %d axiom witnesses", checked)
}

// ----- mutations -----

// TestMutatedWitnessesDifferential perturbs genuine machine witnesses —
// co swaps and rf rewrites — and requires the streaming checker's
// verdict to match the quadratic reference on every mutant under every
// model. (A mutation is not always a violation: reversing two stores of
// independent threads can be a legal alternative execution, which is
// exactly why the reference arbitrates.)
func TestMutatedWitnessesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rejected := map[memmodel.Model]int{}
	agreed := 0
	for _, e := range litmus.Suite() {
		tc := e.Test
		ct, res := runWitnessed(t, tc, 20, sim.ModeUser, sim.DefaultConfig())
		l := ct.WitnessLayout()
		var checkers []*trace.Checker
		for _, m := range memmodel.Models {
			c, err := trace.NewCheckerLayout(l, m)
			if err != nil {
				t.Fatal(err)
			}
			checkers = append(checkers, c)
		}
		for trial := 0; trial < 40; trial++ {
			s := rng.Intn(res.Witnesses.Slots)
			rf := append([]int32(nil), res.Witnesses.RFAt(s)...)
			co := append([]int32(nil), res.Witnesses.CoAt(s)...)
			switch {
			case len(co) >= 2 && rng.Intn(2) == 0:
				i, j := rng.Intn(len(co)), rng.Intn(len(co))
				co[i], co[j] = co[j], co[i]
			case len(rf) > 0:
				k := rng.Intn(len(rf))
				// Retarget the load to a random same-location store or init.
				var cands []int32 = []int32{-1}
				for st := int32(0); st < int32(l.NStores()); st++ {
					if l.StoreLoc(st) == l.LoadLoc(int32(k)) {
						cands = append(cands, st)
					}
				}
				rf[k] = cands[rng.Intn(len(cands))]
			default:
				continue
			}
			for _, c := range checkers {
				v, err := checkOne(c, rf, co)
				if err != nil {
					t.Fatalf("%s: mutated witness unexpectedly malformed: %v", tc.Name, err)
				}
				want := naiveConsistent(tc, rf, co, c.Model())
				if got := v == nil; got != want {
					rep := "accepted"
					if v != nil {
						rep = v.Format()
					}
					t.Fatalf("%s trial %d under %v: checker=%v reference=%v\nrf=%v co=%v\n%s",
						tc.Name, trial, c.Model(), got, want, rf, co, rep)
				}
				agreed++
				if v != nil {
					rejected[c.Model()]++
				}
			}
		}
	}
	for _, m := range memmodel.Models {
		if rejected[m] == 0 {
			t.Fatalf("no mutation was rejected under %v; the differential has no teeth", m)
		}
	}
	t.Logf("agreed on %d verdicts (rejected: %v)", agreed, rejected)
}

// ----- PSO fault-injection self-test -----

// TestTraceDetectsPSO: a machine configured as PSO (store-store drain
// reordering — hardware that claims TSO but isn't) must verify clean
// under PSO on every witness of the suite and the generated corpus, in
// every synchronization mode, and must yield at least one witness the
// TSO checker rejects, with a usable cycle report. This is the trace
// plane's end-to-end detection guarantee, mirroring
// sim's TestOracleDetectsPSO.
func TestTraceDetectsPSO(t *testing.T) {
	cfg, err := sim.Preset("pso")
	if err != nil {
		t.Fatal(err)
	}
	var v *trace.Violation
	checked := 0
	for _, tc := range corpus(t) {
		for _, mode := range []sim.Mode{sim.ModeUser, sim.ModeTimebase, sim.ModeNone} {
			ct, res := runWitnessed(t, tc, 2000, mode, cfg)
			pso, err := trace.NewCheckerLayout(ct.WitnessLayout(), memmodel.PSO)
			if err != nil {
				t.Fatal(err)
			}
			tso, err := trace.NewCheckerLayout(ct.WitnessLayout(), memmodel.TSO)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < res.Witnesses.Slots; s++ {
				pv, err := pso.Check(res.Witnesses, s)
				if err != nil {
					t.Fatalf("%s/%s slot %d: %v", tc.Name, mode, s, err)
				}
				if pv != nil {
					t.Fatalf("%s/%s slot %d: PSO machine witness rejected under PSO:\n%s", tc.Name, mode, s, pv.Format())
				}
				checked++
				if v == nil {
					if v, err = tso.Check(res.Witnesses, s); err != nil {
						t.Fatalf("%s/%s slot %d: %v", tc.Name, mode, s, err)
					}
				}
			}
		}
	}
	t.Logf("%d PSO machine witnesses verified clean under PSO", checked)
	if v == nil {
		t.Fatal("PSO machine never produced a TSO-rejected witness; trace verification cannot detect conformance bugs")
	}
	rep := v.Format()
	for _, want := range []string{"trace violation", "cycle", "rf:", "co:"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}
