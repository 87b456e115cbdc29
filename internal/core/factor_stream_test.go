package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// TestColPredCursor holds a predicate's cursor to the definition of its
// admitted set, {j : key[j] ≥ thr[i]} (ge) or {j : key[j] ≤ thr[i]},
// with identity and random thresholds, over rows visited in ascending
// order (as the counting loops do) and then in random order. Random
// thresholds are not monotone in the row index, so at n ≥ 256 the
// cursor must jump across several snapshots; the test checks it did.
func TestColPredCursor(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 63, 64, 65, 256, 300} {
		for _, ge := range []bool{true, false} {
			for _, ident := range []bool{true, false} {
				name := fmt.Sprintf("n=%d/ge=%v/identity=%v", n, ge, ident)
				p := &colPred{key: make([]int32, n), ge: ge}
				for j := range p.key {
					p.key[j] = int32(rng.Intn(n+2)) - 1
				}
				if !ident {
					p.thr = make([]int32, n)
					for i := range p.thr {
						p.thr[i] = int32(rng.Intn(n+2)) - 1
					}
				}
				p.prepare(n)
				words := int32(bitsetWords(n))
				rows := make([]int, 0, 3*n)
				for i := 0; i < n; i++ {
					rows = append(rows, i)
				}
				for k := 0; k < 2*n; k++ {
					rows = append(rows, rng.Intn(n))
				}
				jumps := 0
				for _, i := range rows {
					from := p.pos
					p.seek(i)
					if d := p.pos - from; d > 3*words || d < -3*words {
						jumps++
					}
					thr := int32(i)
					if !ident {
						thr = p.thr[i]
					}
					for j := 0; j < len(p.adm)*64; j++ {
						want := j < n && (ge && p.key[j] >= thr || !ge && p.key[j] <= thr)
						if got := p.adm[j>>6]&(1<<uint(j&63)) != 0; got != want {
							t.Fatalf("%s: row %d (threshold %d) column %d: admitted=%v, want %v", name, i, thr, j, got, want)
						}
					}
				}
				if n >= 256 && jumps == 0 {
					t.Fatalf("%s: no move crossed several snapshots", name)
				}
			}
		}
	}
}

// TestFactorizedStreamedRowsMatchOdometer holds the streamed rows to the
// odometer at n ≥ 256 (four or more words per row and 64 or more
// snapshots per cursor) on random buffers, whole and capped: cross-bound
// predicates with identity thresholds (sb), shared-existential
// predicates whose thresholds are not monotone in the row index (iriw;
// the test checks its target's cursors jump across several snapshots
// between consecutive rows), and tl2-mixed, whose full outcome set
// mixes every form. Target counters, full outcome sets and random
// subsets (with replacement, in random order) all run. TL=3 shapes stay
// at the sizes of TestFactorizedMultiWordMatchesOdometer: the odometer
// would walk 16M frames per count here.
func TestFactorizedStreamedRowsMatchOdometer(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, pt := range []*PerpetualTest{mustConvert(t, "sb"), mustConvert(t, "iriw"), parseConvert(t, tl2MixedSrc)} {
		name := pt.Orig.Name
		pos, err := ConvertAllOutcomes(pt)
		if err != nil {
			t.Fatal(err)
		}
		target, err := NewTargetCounter(pt)
		if err != nil {
			t.Fatal(err)
		}
		sub := make([]*PerpetualOutcome, 3)
		for i := range sub {
			sub[i] = pos[rng.Intn(len(pos))]
		}
		ns := []int{256, 301}
		if testing.Short() {
			ns = ns[:1]
		}
		for _, n := range ns {
			for _, bs := range []*BufSet{randomBufs(rng, pt, n), truncBufs(pt, randomBufs(rng, pt, 2*n), n)} {
				for _, c := range []*Counter{target, NewCounter(pt, pos), NewCounter(pt, sub)} {
					odo, err := c.CountExhaustive(context.Background(), bs)
					if err != nil {
						t.Fatal(err)
					}
					fac, ok, err := c.CountFactorized(bs)
					if err != nil || !ok {
						t.Fatalf("%s n=%d: ok=%v err=%v", name, n, ok, err)
					}
					requireSameCounts(t, name, fac, odo)
				}
				if name == "iriw" {
					requireJumpingCursors(t, target, n)
				}
			}
		}
	}
}

// requireJumpingCursors checks that c's last count streamed a predicate
// with thresholds that fall between consecutive rows and a cursor move
// between consecutive rows that spans several snapshots.
func requireJumpingCursors(t *testing.T, c *Counter, n int) {
	t.Helper()
	r := &c.fscratch.sets[0].pair[0]
	words := int32(bitsetWords(n))
	falls, jumps := false, false
	for _, p := range r.preds {
		if len(p.thr) == 0 {
			continue
		}
		at := func(i int) int32 {
			if p.ge {
				return p.start[p.thr[i]+1]
			}
			return p.start[p.thr[i]+2]
		}
		for i := 1; i < n; i++ {
			falls = falls || p.thr[i] < p.thr[i-1]
			if d := at(i) - at(i-1); d > 3*words || d < -3*words {
				jumps = true
			}
		}
	}
	if r.form != pairPreds || !falls || !jumps {
		t.Fatalf("iriw n=%d: form %d, falling thresholds %v, jumps across snapshots %v; want preds, true, true", n, r.form, falls, jumps)
	}
}

// subOutcomes returns po weakened to every non-empty subset of its
// constraints, each keeping the existential variables its constraints
// still bound. Weakened outcomes overlap the outcome they came from, so
// chains of them make inclusion–exclusion intersect non-empty sets.
func subOutcomes(po *PerpetualOutcome) []*PerpetualOutcome {
	var out []*PerpetualOutcome
	k := len(po.Constraints)
	for mask := 1; mask < 1<<k; mask++ {
		sub := &PerpetualOutcome{}
		for ci, con := range po.Constraints {
			if mask&(1<<ci) != 0 {
				sub.Constraints = append(sub.Constraints, con)
			}
		}
		for _, ev := range po.ExistVars {
			for _, con := range sub.Constraints {
				if con.Var == ev {
					sub.ExistVars = append(sub.ExistVars, ev)
					break
				}
			}
		}
		out = append(out, sub)
	}
	return out
}

// TestFactorizedMixedFormChains drives inclusion–exclusion through every
// mix of pair forms at n ≥ 256: outcome chains drawn from weakened sb
// and tl2-mixed outcomes whose (0,1) pair is in rows, cols or preds
// form, so intersections combine row intervals with column intervals,
// column intervals with each other (and the result with rows or
// predicates one level deeper), and predicate lists with everything.
// Each chain is held to the odometer, and each mix must overlap at
// least once (the later outcomes' first-match counts fall short of
// their own sizes), so the intersections are not all empty.
func TestFactorizedMixedFormChains(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	mixes := [][]pairForm{
		{pairRows, pairCols}, {pairCols, pairRows}, {pairRows, pairPreds}, {pairPreds, pairRows},
		{pairCols, pairPreds}, {pairPreds, pairCols}, {pairPreds, pairPreds}, {pairCols, pairCols},
		{pairCols, pairCols, pairRows}, {pairCols, pairCols, pairPreds}, {pairRows, pairCols, pairPreds},
	}
	overlapped := make([]bool, len(mixes))
	for _, pt := range []*PerpetualTest{mustConvert(t, "sb"), parseConvert(t, tl2MixedSrc)} {
		pos, err := ConvertAllOutcomes(pt)
		if err != nil {
			t.Fatal(err)
		}
		byForm := map[pairForm][]*PerpetualOutcome{}
		for _, po := range pos {
			for _, sub := range subOutcomes(po) {
				if plan := planOutcome(pt, sub); plan != nil {
					byForm[plan.form[0]] = append(byForm[plan.form[0]], sub)
				}
			}
		}
		for _, f := range []pairForm{pairRows, pairCols, pairPreds} {
			if len(byForm[f]) == 0 {
				t.Fatalf("%s: no weakened outcome in form %d", pt.Orig.Name, f)
			}
		}
		for _, n := range []int{256, 300} {
			bs := truncBufs(pt, randomBufs(rng, pt, n+n/2), n)
			for mi, mix := range mixes {
				for round := 0; round < 3; round++ {
					chain := make([]*PerpetualOutcome, len(mix))
					for i, f := range mix {
						chain[i] = byForm[f][rng.Intn(len(byForm[f]))]
					}
					c := NewCounter(pt, chain)
					odo, err := c.CountExhaustive(context.Background(), bs)
					if err != nil {
						t.Fatal(err)
					}
					fac, ok, err := c.CountFactorized(bs)
					if err != nil || !ok {
						t.Fatalf("%s n=%d: ok=%v err=%v", pt.Orig.Name, n, ok, err)
					}
					requireSameCounts(t, fmt.Sprintf("%s/n=%d/mix=%v", pt.Orig.Name, n, mix), fac, odo)
					for i := 1; i < len(chain); i++ {
						alone, err := NewCounter(pt, chain[i:i+1]).CountExhaustive(context.Background(), bs)
						if err != nil {
							t.Fatal(err)
						}
						if odo.Counts[i] < alone.Counts[0] {
							overlapped[mi] = true
						}
					}
				}
			}
		}
	}
	for mi, ok := range overlapped {
		if !ok {
			t.Errorf("mix %v never intersected non-empty sets", mixes[mi])
		}
	}
}
