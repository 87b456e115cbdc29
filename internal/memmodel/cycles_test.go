package memmodel_test

import (
	"testing"

	"perple/internal/litmus"
	. "perple/internal/memmodel"
)

// TestCycleClassification cross-validates the diy-style generator against
// the axiomatic checker: a critical cycle's target is SC-forbidden by
// construction, and it is allowed under a weaker model exactly when the
// model relaxes at least one of the cycle's program-order edges (PodWR
// under TSO; PodWR or PodWW under PSO).
//
// The iff holds for cycles in which each thread contributes at most two
// accesses (one program-order edge) — Shasha & Snir's critical-cycle
// shape. Longer per-thread segments have model-internal shortcuts (TSO
// relaxes W→R but a W→R→W segment stays ordered end-to-end via W→W), so
// the enumeration skips cycles with two consecutive program-order edges.
// Wse edges are likewise skipped (the test covers them separately via
// TestCycleMatchesSuite's final-state-pinned classics).
func TestCycleClassification(t *testing.T) {
	alphabet := []litmus.EdgeSpec{
		litmus.Rfe, litmus.Fre,
		litmus.PodWR, litmus.PodRR, litmus.PodRW, litmus.PodWW,
		litmus.FencedWR, litmus.FencedWW,
	}
	checked := 0
	for _, length := range []int{4, 5} {
		checked += checkCyclesOfLength(t, alphabet, length)
	}
	if checked < 30 {
		t.Fatalf("only %d cycles checked; enumeration broken", checked)
	}
	t.Logf("checked %d cycles", checked)
}

func checkCyclesOfLength(t *testing.T, alphabet []litmus.EdgeSpec, length int) int {
	t.Helper()
	idx := make([]int, length)
	checked := 0
	for {
		edges := make([]litmus.EdgeSpec, length)
		for i, j := range idx {
			edges[i] = alphabet[j]
		}
		// Critical-cycle restriction: no two consecutive po edges
		// (including the wrap-around pair).
		critical := true
		for i := range edges {
			if !edges[i].External() && !edges[(i+1)%len(edges)].External() {
				critical = false
			}
		}
		if test, err := litmus.FromCycle("cyc", edges...); critical && err == nil {
			checked++
			hasWR, hasWW := false, false
			for _, e := range edges {
				if e == litmus.PodWR {
					hasWR = true
				}
				if e == litmus.PodWW {
					hasWW = true
				}
			}
			if allowed(t, test, test.Target, SC) {
				t.Errorf("cycle %v: target SC-allowed; cycles must be SC-forbidden", edges)
			}
			if got := allowed(t, test, test.Target, TSO); got != hasWR {
				t.Errorf("cycle %v: TSO-allowed = %v, want %v (PodWR present = %v)",
					edges, got, hasWR, hasWR)
			}
			if got := allowed(t, test, test.Target, PSO); got != (hasWR || hasWW) {
				t.Errorf("cycle %v: PSO-allowed = %v, want %v", edges, got, hasWR || hasWW)
			}
		}
		i := length - 1
		for i >= 0 {
			idx[i]++
			if idx[i] < len(alphabet) {
				break
			}
			idx[i] = 0
			i--
		}
		if i < 0 {
			return checked
		}
	}
}

// TestCycleMatchesSuite: the classic cycles reproduce the classification
// of their hand-written suite counterparts.
func TestCycleMatchesSuite(t *testing.T) {
	cases := []struct {
		suiteName string
		cycle     []litmus.EdgeSpec
	}{
		{"sb", []litmus.EdgeSpec{litmus.PodWR, litmus.Fre, litmus.PodWR, litmus.Fre}},
		{"mp", []litmus.EdgeSpec{litmus.PodWW, litmus.Rfe, litmus.PodRR, litmus.Fre}},
		{"iriw", []litmus.EdgeSpec{litmus.Rfe, litmus.PodRR, litmus.Fre, litmus.Rfe, litmus.PodRR, litmus.Fre}},
		{"wrc", []litmus.EdgeSpec{litmus.Rfe, litmus.PodRW, litmus.Rfe, litmus.PodRR, litmus.Fre}},
		{"amd5", []litmus.EdgeSpec{litmus.FencedWR, litmus.Fre, litmus.FencedWR, litmus.Fre}},
	}
	for _, c := range cases {
		suiteTest, err := litmus.SuiteTest(c.suiteName)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := litmus.FromCycle("gen-"+c.suiteName, c.cycle...)
		if err != nil {
			t.Fatalf("%s: %v", c.suiteName, err)
		}
		for _, m := range []Model{SC, TSO, PSO} {
			want := allowed(t, suiteTest, suiteTest.Target, m)
			got := allowed(t, gen, gen.Target, m)
			if got != want {
				t.Errorf("%s under %v: generated %v, suite %v", c.suiteName, m, got, want)
			}
		}
		if gen.T() != suiteTest.T() || gen.TL() != suiteTest.TL() {
			t.Errorf("%s: generated [T,TL]=[%d,%d], suite [%d,%d]",
				c.suiteName, gen.T(), gen.TL(), suiteTest.T(), suiteTest.TL())
		}
	}
}
