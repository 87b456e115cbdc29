package memmodel_test

import (
	"testing"

	"perple/internal/litmus"
	. "perple/internal/memmodel"
)

// TestFullFencingRestoresSC is the classic theorem as an oracle: a test
// with an MFENCE between every pair of accesses has the same register-
// outcome set under TSO (and PSO) as the original test has under SC.
// Checked over the whole suite with the axiomatic checker.
func TestFullFencingRestoresSC(t *testing.T) {
	for _, e := range litmus.Suite() {
		e := e
		t.Run(e.Test.Name, func(t *testing.T) {
			fenced := litmus.WithFences(e.Test)
			if err := fenced.Validate(); err != nil {
				t.Fatal(err)
			}
			scSet := outcomeKeySet(allowedOutcomes(t, e.Test, SC))
			for _, m := range []Model{TSO, PSO} {
				fencedSet := outcomeKeySet(allowedOutcomes(t, fenced, m))
				if len(fencedSet) != len(scSet) {
					t.Errorf("%v: fenced outcome set has %d entries, SC has %d",
						m, len(fencedSet), len(scSet))
				}
				for k := range scSet {
					if !fencedSet[k] {
						t.Errorf("%v: SC outcome %q missing from fenced set", m, k)
					}
				}
				for k := range fencedSet {
					if !scSet[k] {
						t.Errorf("%v: fenced set wrongly contains %q", m, k)
					}
				}
			}
		})
	}
}

func outcomeKeySet(outs []litmus.Outcome) map[string]bool {
	set := map[string]bool{}
	for _, o := range outs {
		set[o.Key()] = true
	}
	return set
}

func TestWithFencesStructure(t *testing.T) {
	sb, err := litmus.SuiteTest("sb")
	if err != nil {
		t.Fatal(err)
	}
	fenced := litmus.WithFences(sb)
	if fenced.Name != "sb+mfences" {
		t.Errorf("name = %q", fenced.Name)
	}
	// sb: store;load per thread -> store;fence;load.
	for ti, th := range fenced.Threads {
		if len(th.Instrs) != 3 || th.Instrs[1].Kind != litmus.OpFence {
			t.Errorf("thread %d: %v", ti, th.Instrs)
		}
	}
	// Existing fences are not duplicated.
	amd5, err := litmus.SuiteTest("amd5")
	if err != nil {
		t.Fatal(err)
	}
	refenced := litmus.WithFences(amd5)
	for ti, th := range refenced.Threads {
		for i := 1; i < len(th.Instrs); i++ {
			if th.Instrs[i].Kind == litmus.OpFence && th.Instrs[i-1].Kind == litmus.OpFence {
				t.Errorf("thread %d has consecutive fences: %v", ti, th.Instrs)
			}
		}
	}
	// The original is untouched.
	if len(sb.Threads[0].Instrs) != 2 {
		t.Error("WithFences mutated its input")
	}
}

func TestRelabelLocations(t *testing.T) {
	sb, err := litmus.SuiteTest("sb")
	if err != nil {
		t.Fatal(err)
	}
	out, err := litmus.RelabelLocations(sb, map[litmus.Loc]litmus.Loc{"x": "a", "y": "b"})
	if err != nil {
		t.Fatal(err)
	}
	locs := out.Locs()
	if len(locs) != 2 || locs[0] != "a" || locs[1] != "b" {
		t.Errorf("locs = %v", locs)
	}
	// Classification is invariant under relabeling.
	if allowed(t, out, out.Target, TSO) != allowed(t, sb, sb.Target, TSO) {
		t.Error("relabeling changed the TSO classification")
	}
	// Collapsing two locations is rejected.
	if _, err := litmus.RelabelLocations(sb, map[litmus.Loc]litmus.Loc{"x": "y"}); err == nil {
		t.Error("collapse accepted")
	}
}
