// The tests of this package cross-validate the operational reference
// machine against the axiomatic checker in internal/axiom, which decides
// allowed/forbidden for the rest of the repo. They live in an external
// test package because axiom imports memmodel for the model definitions.
package memmodel_test

import (
	"math/rand"
	"testing"

	"perple/internal/axiom"
	"perple/internal/litmus"
	. "perple/internal/memmodel"
)

func mustTest(t *testing.T, name string) *litmus.Test {
	t.Helper()
	test, err := litmus.SuiteTest(name)
	if err != nil {
		t.Fatal(err)
	}
	return test
}

// allowed asks the axiomatic checker whether m allows outcome o.
func allowed(t *testing.T, test *litmus.Test, o litmus.Outcome, m Model) bool {
	t.Helper()
	ok, err := axiom.Allowed(test, o, m)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// allowedOutcomes asks the axiomatic checker for m's register outcomes.
func allowedOutcomes(t *testing.T, test *litmus.Test, m Model) []litmus.Outcome {
	t.Helper()
	outs, err := axiom.AllowedOutcomes(test, m)
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// axiomKeys returns the axiomatic checker's final states (registers and
// memory) under m; a refusal fails the test.
func axiomKeys(t *testing.T, test *litmus.Test, m Model) map[string]bool {
	t.Helper()
	rs, err := axiom.AllowedSet(test, m)
	if err != nil {
		t.Fatalf("%v\n%s", err, litmus.Format(test))
	}
	keys := map[string]bool{}
	for _, r := range rs {
		keys[StateKey(test, r.Regs, r.Mem)] = true
	}
	return keys
}

// TestTableIIClassification is the reproduction of Table II's grouping:
// every suite target must be allowed/forbidden under x86-TSO exactly as
// the paper lists, and every allowed-group target must additionally be
// SC-forbidden (it demonstrates store buffering, which is what makes it a
// "target outcome").
func TestTableIIClassification(t *testing.T) {
	for _, e := range litmus.Suite() {
		e := e
		t.Run(e.Test.Name, func(t *testing.T) {
			tsoAllowed := allowed(t, e.Test, e.Test.Target, TSO)
			if tsoAllowed != e.Allowed {
				t.Errorf("TSO allows target = %v, Table II says %v", tsoAllowed, e.Allowed)
			}
			if e.Allowed {
				if allowed(t, e.Test, e.Test.Target, SC) {
					t.Errorf("allowed-group target is SC-allowed; it would not demonstrate store buffering")
				}
			}
		})
	}
}

// TestOperationalMatchesAxiomaticOnSuite cross-validates the two
// independent model implementations on every suite test under SC and TSO
// (TestPSOAgreement covers PSO).
func TestOperationalMatchesAxiomaticOnSuite(t *testing.T) {
	for _, e := range litmus.Suite() {
		e := e
		t.Run(e.Test.Name, func(t *testing.T) {
			for _, m := range []Model{SC, TSO} {
				ax := axiomKeys(t, e.Test, m)
				op := resultSetKeys(e.Test, OperationalAllowedSet(e.Test, m))
				diff(t, e.Test.Name, m, ax, op)
			}
		})
	}
}

// TestOperationalMatchesAxiomaticOnRandomTests fuzzes the equivalence on
// generator output with small shapes (the state spaces stay tractable).
// Three threads of three instructions reach 9 events, one past the
// axiomatic checker's default cutoff, so the test raises it through
// AnalyzeWithLimits (whose Results are the TSO states, SC-flagged); a
// refusal fails.
func TestOperationalMatchesAxiomaticOnRandomTests(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := litmus.GenConfig{
		MinThreads: 2, MaxThreads: 3, MaxInstrs: 3,
		Locs: []litmus.Loc{"x", "y"}, FenceProb: 0.2,
	}
	n := 60
	if testing.Short() {
		n = 15
	}
	for i := 0; i < n; i++ {
		test := litmus.Generate(rng, cfg, "fuzz")
		rep, err := axiom.AnalyzeWithLimits(test, axiom.Limits{MaxEvents: 9})
		if err != nil {
			t.Fatalf("%v\n%s", err, litmus.Format(test))
		}
		for _, m := range []Model{SC, TSO} {
			ax := map[string]bool{}
			for _, r := range rep.Results {
				if m == TSO || r.SC {
					ax[StateKey(test, r.Regs, r.Mem)] = true
				}
			}
			op := resultSetKeys(test, OperationalAllowedSet(test, m))
			if !diff(t, test.Name, m, ax, op) {
				t.Logf("failing test:\n%s", litmus.Format(test))
				return
			}
		}
	}
}

func resultSetKeys(t *litmus.Test, rs []Result) map[string]bool {
	keys := map[string]bool{}
	for _, r := range rs {
		keys[StateKey(t, r.Regs, r.Mem)] = true
	}
	return keys
}

func diff(t *testing.T, name string, m Model, ax, op map[string]bool) bool {
	t.Helper()
	ok := true
	for k := range ax {
		if !op[k] {
			t.Errorf("%s/%v: axiomatic allows %q, operational does not", name, m, k)
			ok = false
		}
	}
	for k := range op {
		if !ax[k] {
			t.Errorf("%s/%v: operational allows %q, axiomatic does not", name, m, k)
			ok = false
		}
	}
	return ok
}

// TestSCSubsetOfTSO: everything the SC machine reaches, the TSO machine
// reaches (TSO only relaxes).
func TestSCSubsetOfTSO(t *testing.T) {
	for _, e := range litmus.Suite() {
		sc := resultSetKeys(e.Test, OperationalAllowedSet(e.Test, SC))
		tso := resultSetKeys(e.Test, OperationalAllowedSet(e.Test, TSO))
		for k := range sc {
			if !tso[k] {
				t.Errorf("%s: SC result %q not TSO-allowed", e.Test.Name, k)
			}
		}
	}
}

func TestSBOutcomeSets(t *testing.T) {
	sb := mustTest(t, "sb")
	scOut := allowedOutcomes(t, sb, SC)
	tsoOut := allowedOutcomes(t, sb, TSO)
	if len(scOut) != 3 {
		t.Errorf("SC allows %d sb outcomes, want 3 (all but 0,0)", len(scOut))
	}
	if len(tsoOut) != 4 {
		t.Errorf("TSO allows %d sb outcomes, want 4 (all)", len(tsoOut))
	}
	// The target (0,0) is the TSO-only one.
	found := false
	for _, o := range tsoOut {
		if o.Equal(sb.Target) {
			found = true
		}
	}
	if !found {
		t.Error("TSO outcome set misses the sb target")
	}
	for _, o := range scOut {
		if o.Equal(sb.Target) {
			t.Error("SC outcome set wrongly contains the sb target")
		}
	}
}

func TestLBForbiddenBothModels(t *testing.T) {
	lb := mustTest(t, "lb")
	for _, m := range []Model{SC, TSO} {
		if allowed(t, lb, lb.Target, m) {
			t.Errorf("lb target allowed under %v", m)
		}
	}
	// But the all-zero outcome is allowed everywhere.
	zero := litmus.Outcome{Conds: []litmus.Cond{
		{Thread: 0, Reg: 0, Value: 0}, {Thread: 1, Reg: 0, Value: 0},
	}}
	for _, m := range []Model{SC, TSO} {
		if !allowed(t, lb, zero, m) {
			t.Errorf("lb zero outcome forbidden under %v", m)
		}
	}
}

func TestFencesRestoreSC(t *testing.T) {
	// amd5 is sb with fences: its outcome set must equal sb's SC set.
	amd5 := mustTest(t, "amd5")
	sb := mustTest(t, "sb")
	fenced := allowedOutcomes(t, amd5, TSO)
	sc := allowedOutcomes(t, sb, SC)
	if len(fenced) != len(sc) {
		t.Fatalf("amd5 under TSO allows %d outcomes, sb under SC allows %d", len(fenced), len(sc))
	}
}

func TestFinalMemoryConditions(t *testing.T) {
	for _, test := range litmus.NonConvertible() {
		test := test
		t.Run(test.Name, func(t *testing.T) {
			// Every non-convertible example target must at least be
			// decidable; coww's target (final x=1 after x=1;x=2 in program
			// order) is forbidden under both models.
			if test.Name == "coww" {
				if allowed(t, test, test.Target, TSO) {
					t.Error("coww target should be forbidden under TSO")
				}
				if OperationalAllowed(test, test.Target, TSO) {
					t.Error("coww target should be operationally impossible under TSO")
				}
			}
			// 2+2w's target needs store-store reordering, which TSO's FIFO
			// buffers forbid; both checkers must agree.
			if test.Name == "2+2w" {
				if allowed(t, test, test.Target, TSO) {
					t.Error("2+2w final state x=1,y=1 should be TSO-forbidden")
				}
				if OperationalAllowed(test, test.Target, TSO) {
					t.Error("2+2w target should be operationally impossible under TSO")
				}
			}
		})
	}
}

func TestModelString(t *testing.T) {
	if SC.String() != "SC" || TSO.String() != "TSO" {
		t.Error("model names wrong")
	}
	if Model(9).String() == "" {
		t.Error("unknown model should still render")
	}
}
