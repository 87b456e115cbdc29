package axiom

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"perple/internal/litmus"
	"perple/internal/memmodel"
)

// TestSuiteClassification is the headline acceptance property: for every
// test of the Table II suite, the static classification of the declared
// target matches the suite's allowed/forbidden label. The allowed group's
// targets are additionally SC-forbidden by construction (observing one
// demonstrates store buffering), so they must classify exactly TSOOnly.
func TestSuiteClassification(t *testing.T) {
	for _, e := range litmus.Suite() {
		rep, err := Analyze(e.Test)
		if err != nil {
			t.Fatalf("%s: %v", e.Test.Name, err)
		}
		want := Forbidden
		if e.Allowed {
			want = TSOOnly
		}
		if rep.Target.Class != want {
			t.Errorf("%s: target classified %v, want %v", e.Test.Name, rep.Target.Class, want)
		}
		if e.Allowed && rep.Target.Witness == nil {
			t.Errorf("%s: allowed target has no witness", e.Test.Name)
		}
		if !e.Allowed && rep.Target.Witness != nil {
			t.Errorf("%s: forbidden target has a witness:\n%s", e.Test.Name, rep.Target.Witness.Format())
		}
		if rep.Target.Unsatisfiable {
			t.Errorf("%s: suite target reported unsatisfiable", e.Test.Name)
		}
		if rep.Target.Vacuous {
			t.Errorf("%s: suite target reported vacuous", e.Test.Name)
		}
	}
}

// TestNonConvertibleAgainstMemmodel classifies the final-memory-target
// tests against the operational reference machine rather than
// hand-written labels.
func TestNonConvertibleAgainstMemmodel(t *testing.T) {
	for _, tc := range litmus.NonConvertible() {
		rep, err := Analyze(tc)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		wantTSO := memmodel.OperationalAllowed(tc, tc.Target, memmodel.TSO)
		wantSC := memmodel.OperationalAllowed(tc, tc.Target, memmodel.SC)
		var want Class
		switch {
		case wantSC:
			want = SCAllowed
		case wantTSO:
			want = TSOOnly
		default:
			want = Forbidden
		}
		if rep.Target.Class != want {
			t.Errorf("%s: target classified %v, want %v", tc.Name, rep.Target.Class, want)
		}
	}
}

// TestResultSetsMatchMemmodel cross-validates the memoized enumeration
// against the independent operational store-buffer machine over the
// non-convertible tests: identical SC, TSO and PSO result sets. The suite
// is compared in internal/memmodel (TestOperationalMatchesAxiomaticOnSuite
// for SC and TSO, TestPSOAgreement for PSO).
func TestResultSetsMatchMemmodel(t *testing.T) {
	for _, tc := range litmus.NonConvertible() {
		checkResultSets(t, tc, DefaultLimits())
	}
}

// TestResultSetsMatchMemmodelRandom repeats the cross-validation over a
// fixed-seed generated corpus sized to fit the default cutoff, and over
// diy cycle tests.
func TestResultSetsMatchMemmodelRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cfg := litmus.GenConfig{
		MinThreads: 2,
		MaxThreads: 4,
		MaxInstrs:  2,
		Locs:       []litmus.Loc{"x", "y", "z"},
		FenceProb:  0.2,
	}
	for i := 0; i < 40; i++ {
		tc := litmus.Generate(rng, cfg, fmt.Sprintf("axrand%03d", i))
		checkResultSets(t, tc, DefaultLimits())
	}
	// And over diy cycle tests, which exercise every edge kind.
	cycles := [][]litmus.EdgeSpec{
		{litmus.PodWR, litmus.Fre, litmus.PodWR, litmus.Fre},
		{litmus.PodWW, litmus.Rfe, litmus.PodRR, litmus.Fre},
		{litmus.PodRW, litmus.Rfe, litmus.PodRW, litmus.Rfe},
		{litmus.Rfe, litmus.PodRW, litmus.Rfe, litmus.PodRR, litmus.Fre},
		{litmus.Rfe, litmus.PodRR, litmus.Fre, litmus.Rfe, litmus.PodRR, litmus.Fre},
		{litmus.FencedWR, litmus.Fre, litmus.FencedWR, litmus.Fre},
		{litmus.Wse, litmus.PodWW, litmus.Wse, litmus.PodWW},
		{litmus.FencedWW, litmus.Rfe, litmus.PodRR, litmus.Fre},
		{litmus.PodWW, litmus.Rfe, litmus.FencedRR, litmus.Fre},
		{litmus.PodWW, litmus.Wse, litmus.FencedWW, litmus.Wse},
	}
	for i, edges := range cycles {
		tc, err := litmus.FromCycle(fmt.Sprintf("axcycle%02d", i), edges...)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		checkResultSets(t, tc, DefaultLimits())
	}
}

// TestPSOAgreementRandom cross-validates the PSO sets on generator output
// with small shapes. Three threads of three instructions reach 9 events,
// one past the default cutoff, so the test raises it; a refusal fails.
func TestPSOAgreementRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cfg := litmus.GenConfig{
		MinThreads: 2, MaxThreads: 3, MaxInstrs: 3,
		Locs: []litmus.Loc{"x", "y"}, FenceProb: 0.2,
	}
	n := 40
	if testing.Short() {
		n = 10
	}
	for i := 0; i < n; i++ {
		test := litmus.Generate(rng, cfg, "psofuzz")
		got, err := allowedSet(test, memmodel.PSO, Limits{MaxEvents: 9})
		if err != nil {
			t.Fatalf("%s: %v\n%s", test.Name, err, litmus.Format(test))
		}
		want := memmodelKeys(test, memmodel.OperationalAllowedSet(test, memmodel.PSO))
		if !diffKeys(t, test.Name, "PSO vs operational", stateKeys(test, got), want) {
			t.Logf("failing test:\n%s", litmus.Format(test))
			return
		}
	}
}

// checkResultSets requires axiom's SC, TSO and PSO result sets, enumerated
// up to lim, to equal the operational machine's. A refusal fails the test.
func checkResultSets(t *testing.T, tc *litmus.Test, lim Limits) {
	t.Helper()
	for _, m := range memmodel.Models {
		got, err := allowedSet(tc, m, lim)
		var tle *TooLargeError
		if errors.As(err, &tle) {
			t.Fatalf("%s: unexpectedly over the cutoff: %v", tc.Name, err)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		want := memmodelKeys(tc, memmodel.OperationalAllowedSet(tc, m))
		diffKeys(t, tc.Name, m.String()+" vs operational", stateKeys(tc, got), want)
	}
}

func stateKeys(tc *litmus.Test, results []Result) map[string]bool {
	out := map[string]bool{}
	for _, r := range results {
		out[memmodel.StateKey(tc, r.Regs, r.Mem)] = true
	}
	return out
}

func memmodelKeys(tc *litmus.Test, results []memmodel.Result) map[string]bool {
	out := map[string]bool{}
	for _, r := range results {
		out[memmodel.StateKey(tc, r.Regs, r.Mem)] = true
	}
	return out
}

// diffKeys reports every state on which got and want disagree and
// returns whether they are equal.
func diffKeys(t *testing.T, name, what string, got, want map[string]bool) bool {
	t.Helper()
	ok := true
	for k := range got {
		if !want[k] {
			t.Errorf("%s: %s: axiom allows state %q the oracle forbids", name, what, k)
			ok = false
		}
	}
	for k := range want {
		if !got[k] {
			t.Errorf("%s: %s: axiom misses state %q the oracle allows", name, what, k)
			ok = false
		}
	}
	return ok
}

func TestClassifyOutcomeSpace(t *testing.T) {
	sb, err := litmus.SuiteTest("sb")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) != 4 {
		t.Fatalf("sb outcome space has %d entries, want 4", len(rep.Outcomes))
	}
	// Exactly one TSOOnly outcome (0,0); the other three are SC-allowed.
	var tsoOnly, scAllowed int
	for _, oc := range rep.Outcomes {
		switch oc.Class {
		case TSOOnly:
			tsoOnly++
		case SCAllowed:
			scAllowed++
		case Forbidden:
			t.Errorf("sb outcome %v classified forbidden", oc.Outcome)
		}
	}
	if tsoOnly != 1 || scAllowed != 3 {
		t.Errorf("sb: got %d tso-only and %d sc-allowed outcomes, want 1 and 3", tsoOnly, scAllowed)
	}
}

func TestUnsatisfiableTarget(t *testing.T) {
	sb, _ := litmus.SuiteTest("sb")
	tc := sb.Clone()
	tc.Name = "sb-unsat"
	tc.Target = litmus.Outcome{Conds: []litmus.Cond{{Thread: 0, Reg: 0, Value: 7}}}
	rep, err := Analyze(tc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Target.Unsatisfiable {
		t.Error("target value outside the store-value domain not reported unsatisfiable")
	}
	if rep.Target.Class != Forbidden {
		t.Errorf("unsatisfiable target classified %v, want forbidden", rep.Target.Class)
	}
}

func TestVacuousTarget(t *testing.T) {
	tc := &litmus.Test{
		Name: "vacuous",
		Threads: []litmus.Thread{
			{Instrs: []litmus.Instr{litmus.Store("x", 1), litmus.Load(0, "x")}},
		},
		Target: litmus.Outcome{Conds: []litmus.Cond{{Thread: 0, Reg: 0, Value: 1}}},
	}
	rep, err := Analyze(tc)
	if err != nil {
		t.Fatal(err)
	}
	// A single-thread load after a same-location store must observe it
	// under any model with coherence: the target always holds.
	if !rep.Target.Vacuous {
		t.Error("always-true target not reported vacuous")
	}
	if rep.Target.Class != SCAllowed {
		t.Errorf("vacuous target classified %v, want sc-allowed", rep.Target.Class)
	}
}

func TestCutoffError(t *testing.T) {
	big := &litmus.Test{Name: "big"}
	for ti := 0; ti < 3; ti++ {
		var ins []litmus.Instr
		for i := 0; i < 3; i++ {
			ins = append(ins, litmus.Store(litmus.Loc(fmt.Sprintf("x%d", ti)), int64(3*ti+i+1)))
		}
		big.Threads = append(big.Threads, litmus.Thread{Instrs: ins})
	}
	big.Target = litmus.Outcome{Conds: []litmus.Cond{{Loc: "x0", Value: 1}}}
	_, err := Analyze(big) // 9 events > default 8
	var tle *TooLargeError
	if !errors.As(err, &tle) {
		t.Fatalf("got %v, want *TooLargeError", err)
	}
	if tle.Events != 9 {
		t.Errorf("TooLargeError.Events = %d, want 9", tle.Events)
	}
	if !strings.Contains(err.Error(), "refusing") {
		t.Errorf("error %q does not state the refusal", err)
	}
	// Raising the cutoff makes the same test analyzable.
	if _, err := AnalyzeWithLimits(big, Limits{MaxThreads: 4, MaxEvents: 9}); err != nil {
		t.Errorf("AnalyzeWithLimits over raised cutoff: %v", err)
	}
	// The allowed/forbidden entry refuses the same way under every model.
	for _, m := range memmodel.Models {
		if _, err := Allowed(big, big.Target, m); !errors.As(err, &tle) {
			t.Errorf("Allowed under %v: got %v, want *TooLargeError", m, err)
		}
	}
}

func TestWitnessFormat(t *testing.T) {
	sb, _ := litmus.SuiteTest("sb")
	rep, err := Analyze(sb)
	if err != nil {
		t.Fatal(err)
	}
	w := rep.Target.Witness
	if w == nil {
		t.Fatal("sb target has no witness")
	}
	if !sb.Target.HoldsFull(w.Regs, w.Mem) {
		t.Fatalf("witness final state does not satisfy the target:\n%s", w.Format())
	}
	out := w.Format()
	for _, want := range []string{"rf:", "co:", "final:", "reads"} {
		if !strings.Contains(out, want) {
			t.Errorf("witness rendering missing %q:\n%s", want, out)
		}
	}
}

// TestDeterministic: two analyses of the same test produce identical
// reports, including result order and witnesses — required for stable CI
// output and reproducible lint reports.
func TestDeterministic(t *testing.T) {
	for _, e := range litmus.Suite()[:6] {
		a, err := Analyze(e.Test)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Analyze(e.Test)
		if err != nil {
			t.Fatal(err)
		}
		if fa, fb := reportFingerprint(a), reportFingerprint(b); fa != fb {
			t.Errorf("%s: analysis not deterministic:\n%s\nvs\n%s", e.Test.Name, fa, fb)
		}
	}
}

// reportFingerprint renders everything observable about a report —
// result order, flags, witnesses, outcome classes, counters — without
// pointer identities.
func reportFingerprint(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "exec=%d consistent=%d\n", r.Executions, r.Consistent)
	for _, res := range r.Results {
		fmt.Fprintf(&b, "state %s sc=%v\n%s", memmodel.StateKey(r.Test, res.Regs, res.Mem), res.SC, res.WitnessWeak.Format())
		if res.WitnessSC != nil {
			b.WriteString(res.WitnessSC.Format())
		}
	}
	for _, oc := range r.Outcomes {
		fmt.Fprintf(&b, "outcome %s: %v\n", oc.Outcome.Key(), oc.Class)
	}
	fmt.Fprintf(&b, "target %v unsat=%v vacuous=%v\n", r.Target.Class, r.Target.Unsatisfiable, r.Target.Vacuous)
	if r.Target.Witness != nil {
		b.WriteString(r.Target.Witness.Format())
	}
	return b.String()
}

func TestRejectsInvalidTest(t *testing.T) {
	tc := &litmus.Test{Name: "bad", Threads: []litmus.Thread{{Instrs: []litmus.Instr{litmus.Store("x", 0)}}}}
	if _, err := Analyze(tc); err == nil {
		t.Error("Analyze accepted a test that fails validation")
	}
	if _, err := Allowed(tc, tc.Target, memmodel.PSO); err == nil {
		t.Error("Allowed accepted a test that fails validation")
	}
	sb, _ := litmus.SuiteTest("sb")
	if _, err := Allowed(sb, sb.Target, memmodel.Model(9)); err == nil {
		t.Error("Allowed accepted an unknown memory model")
	}
}
