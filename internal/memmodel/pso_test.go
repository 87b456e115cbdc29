package memmodel_test

import (
	"testing"

	"perple/internal/litmus"
	. "perple/internal/memmodel"
)

// TestPSOClassification pins the expected PSO status of representative
// suite targets: W→W relaxation newly allows the message-passing family
// (unless fenced), while load-order, store-atomicity and coherence
// violations stay forbidden.
func TestPSOClassification(t *testing.T) {
	want := map[string]bool{
		// Newly allowed under PSO: the writer's stores drain out of order.
		"mp":      true,
		"safe018": true, // mp chain through z
		"safe028": true, // mp with two readers
		// Fences restore store order: still forbidden.
		"mp+fences": false,
		"safe022":   false, // writer-fenced mp
		// TSO-allowed targets remain allowed (PSO only relaxes).
		"sb":           true,
		"iwp23b":       true,
		"podwr001":     true,
		"rwc-unfenced": true,
		// Load-load order and store atomicity still hold.
		"lb":         false,
		"iriw":       false,
		"safe027":    false,
		"rwc-fenced": false,
		// Coherence still holds (per-location order is kept).
		"co-iriw":    false,
		"n4":         false,
		"n5":         false,
		"safe006":    false,
		"mp+staleld": false,
	}
	for name, wantAllowed := range want {
		test, err := litmus.SuiteTest(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := allowed(t, test, test.Target, PSO); got != wantAllowed {
			t.Errorf("%s: PSO allows target = %v, want %v", name, got, wantAllowed)
		}
	}
}

// TestPSOAgreement cross-validates the axiomatic and operational PSO
// models on the whole suite.
func TestPSOAgreement(t *testing.T) {
	for _, e := range litmus.Suite() {
		e := e
		t.Run(e.Test.Name, func(t *testing.T) {
			ax := axiomKeys(t, e.Test, PSO)
			op := resultSetKeys(e.Test, OperationalAllowedSet(e.Test, PSO))
			diff(t, e.Test.Name, PSO, ax, op)
		})
	}
}

// TestModelHierarchy: SC ⊆ TSO ⊆ PSO on the full final states of every
// suite test (weaker models only add behaviours).
func TestModelHierarchy(t *testing.T) {
	for _, e := range litmus.Suite() {
		sc := axiomKeys(t, e.Test, SC)
		tso := axiomKeys(t, e.Test, TSO)
		pso := axiomKeys(t, e.Test, PSO)
		for k := range sc {
			if !tso[k] {
				t.Errorf("%s: SC result %q not in TSO", e.Test.Name, k)
			}
		}
		for k := range tso {
			if !pso[k] {
				t.Errorf("%s: TSO result %q not in PSO", e.Test.Name, k)
			}
		}
	}
}

func TestPSOString(t *testing.T) {
	if PSO.String() != "PSO" {
		t.Errorf("PSO renders as %q", PSO.String())
	}
	if len(Models) != 3 {
		t.Errorf("Models = %v", Models)
	}
}
