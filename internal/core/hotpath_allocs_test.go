package core

import (
	"math/rand"
	"testing"

	"perple/internal/analysis/hotpath"
)

// TestHotpathAllocs verifies this package's //perple:hotpath
// annotations: the frame-evaluation kernel (eval, evalConstraints,
// evalPinned, bufVal) shared by the exhaustive and heuristic counters
// must be allocation-free — it runs N^TL (or N) times per count — and so
// must the factorized pass's cursor, row and interval-count kernels on a
// reused Counter. The exercisers drive the kernels below the entry
// points, which allocate their fresh CountResult per call by design.
func TestHotpathAllocs(t *testing.T) {
	pt := mustConvert(t, "sb")
	pos, err := ConvertAllOutcomes(pt)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCounter(pt, pos)
	const n = 8
	bs := lockstepBufs(pt, n)
	anchor := pt.LoadThreads[0]

	// Full outcome sets over multi-word rows, covering every pair form:
	// cross-bound predicates (sb), shared-existential predicates with
	// jumping cursors (iriw), row and column intervals with
	// inclusion–exclusion (podwr001, safe007), and intersections mixing
	// all forms (tl2-mixed).
	type factorCase struct {
		c      *Counter
		bs     *BufSet
		plans  []*outcomePlan
		counts []int64
	}
	var factorCases []factorCase
	rng := rand.New(rand.NewSource(5))
	var fpts []*PerpetualTest
	for _, name := range []string{"sb", "iriw", "podwr001", "safe007"} {
		fpts = append(fpts, mustConvert(t, name))
	}
	for _, fpt := range append(fpts, parseConvert(t, tl2MixedSrc)) {
		fpos, err := ConvertAllOutcomes(fpt)
		if err != nil {
			t.Fatal(err)
		}
		fc := NewCounter(fpt, fpos)
		plans, ok := fc.factorPlans()
		if !ok {
			t.Fatalf("%s: not factorizable", fpt.Orig.Name)
		}
		factorCases = append(factorCases, factorCase{fc, randomBufs(rng, fpt, 130), plans, make([]int64, len(fpos))})
	}
	hotpath.Verify(t, ".", map[string]func(){
		"core-factor": func() {
			for _, fc := range factorCases {
				if !fc.c.factorCounts(fc.bs, fc.plans, fc.counts) {
					t.Fatal("factorized pass fell back")
				}
			}
		},
		"core-count-eval": func() {
			for i := int64(0); i < n; i++ {
				for j := int64(0); j < n; j++ {
					c.vals[pt.LoadThreads[0]] = i
					c.vals[pt.LoadThreads[1]] = j
					for _, po := range pos {
						c.eval(po, bs, n)
					}
				}
				c.vals[anchor] = i
				for _, po := range pos {
					c.evalPinned(po, bs, n, i)
				}
			}
		},
	})
}
