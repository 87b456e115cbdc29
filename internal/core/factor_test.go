package core

import (
	"context"
	"math/rand"
	"testing"

	"perple/internal/litmus"
)

// requireSameCounts holds a factorized result to the odometer's,
// bit-for-bit: every per-outcome tally and the logical frame count.
func requireSameCounts(t *testing.T, name string, fac, odo *CountResult) {
	t.Helper()
	if fac.Frames != odo.Frames {
		t.Fatalf("%s: factorized frames = %d, odometer = %d", name, fac.Frames, odo.Frames)
	}
	if len(fac.Counts) != len(odo.Counts) {
		t.Fatalf("%s: count lengths differ: %d vs %d", name, len(fac.Counts), len(odo.Counts))
	}
	for i := range fac.Counts {
		if fac.Counts[i] != odo.Counts[i] {
			t.Fatalf("%s: outcome %d: factorized = %d, odometer = %d (all: fac=%v odo=%v)",
				name, i, fac.Counts[i], odo.Counts[i], fac.Counts, odo.Counts)
		}
	}
}

// TestFactorizedCoversSuite asserts the factorized path actually engages
// (no silent odometer fallback) for every convertible suite test with
// its full outcome set — the speedup claim is void if the planner bails.
func TestFactorizedCoversSuite(t *testing.T) {
	for _, e := range litmus.Suite() {
		pt, err := Convert(e.Test)
		if err != nil {
			continue
		}
		pos, err := ConvertAllOutcomes(pt)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCounter(pt, pos)
		bs := NewBufSet(pt, 4)
		if _, ok, err := c.CountFactorized(bs); err != nil {
			t.Fatalf("%s: %v", e.Test.Name, err)
		} else if !ok {
			t.Errorf("%s: full outcome set fell back to the odometer", e.Test.Name)
		}
	}
}

// TestFactorizedMatchesOdometerSuite is the headline differential: for
// every convertible suite test (TL spans 1..3: mp, sb/iriw, podwr001)
// and its full first-match outcome chain, the factorized counter must
// reproduce the odometer's tallies exactly over random buffers.
func TestFactorizedMatchesOdometerSuite(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rounds := 12
	if testing.Short() {
		rounds = 3
	}
	for _, e := range litmus.Suite() {
		pt, err := Convert(e.Test)
		if err != nil {
			continue
		}
		pos, err := ConvertAllOutcomes(pt)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCounter(pt, pos)
		for round := 0; round < rounds; round++ {
			n := 1 + rng.Intn(14)
			bs := randomBufs(rng, pt, n)
			odo, err := c.CountExhaustive(context.Background(), bs)
			if err != nil {
				t.Fatal(err)
			}
			fac, ok, err := c.CountFactorized(bs)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("%s: unexpected fallback", e.Test.Name)
			}
			requireSameCounts(t, e.Test.Name, fac, odo)
		}
	}
}

// TestFactorizedMatchesOdometerLockstep pins the differential to the
// analytically known lockstep sb partition (diagonal + two triangles).
func TestFactorizedMatchesOdometerLockstep(t *testing.T) {
	pt := mustConvert(t, "sb")
	pos, err := ConvertAllOutcomes(pt)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCounter(pt, pos)
	const n = 20
	bs := lockstepBufs(pt, n)
	fac, ok, err := c.CountFactorized(bs)
	if err != nil || !ok {
		t.Fatalf("factorized: ok=%v err=%v", ok, err)
	}
	want := []int64{n, n * (n - 1) / 2, n * (n - 1) / 2, 0}
	for i, w := range want {
		if fac.Counts[i] != w {
			t.Errorf("outcome %d count = %d, want %d", i, fac.Counts[i], w)
		}
	}
	if fac.Frames != n*n {
		t.Errorf("frames = %d, want %d", fac.Frames, n*n)
	}
}

// TestFactorizedFuzzOutcomeSets is the satellite fuzz: random outcome
// subsets of size 1–4 — with replacement, so duplicated outcomes force
// fully overlapping sets through the inclusion–exclusion chain (a
// duplicate's first-match count must be exactly 0) — over random
// BufSets and varying N, for tests spanning TL ∈ {1, 2, 3}.
func TestFactorizedFuzzOutcomeSets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	for _, name := range []string{"mp", "sb", "amd3", "iriw", "podwr001"} {
		pt := mustConvert(t, name)
		pos, err := ConvertAllOutcomes(pt)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < rounds; round++ {
			k := 1 + rng.Intn(4)
			sel := make([]*PerpetualOutcome, k)
			for i := range sel {
				sel[i] = pos[rng.Intn(len(pos))]
			}
			c := NewCounter(pt, sel)
			n := 1 + rng.Intn(12)
			bs := randomBufs(rng, pt, n)
			odo, err := c.CountExhaustive(context.Background(), bs)
			if err != nil {
				t.Fatal(err)
			}
			fac, ok, err := c.CountFactorized(bs)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("%s round %d: unexpected fallback", name, round)
			}
			requireSameCounts(t, name, fac, odo)
			for i := range sel {
				for j := 0; j < i; j++ {
					if sel[j] == sel[i] && fac.Counts[i] != 0 {
						t.Fatalf("%s: duplicated outcome %d counted %d frames, want 0",
							name, i, fac.Counts[i])
					}
				}
			}
		}
	}
}

// TestFactorizedEmptyAndZero covers the degenerate shapes the odometer
// special-cases: N=0 and an unsatisfiable outcome in the chain.
func TestFactorizedEmptyAndZero(t *testing.T) {
	pt := mustConvert(t, "sb")
	pos, err := ConvertAllOutcomes(pt)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCounter(pt, pos)
	fac, ok, err := c.CountFactorized(NewBufSet(pt, 0))
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if fac.Frames != 0 || total(fac) != 0 {
		t.Errorf("N=0 produced frames=%d total=%d", fac.Frames, total(fac))
	}

	unsat := &PerpetualOutcome{Unsatisfiable: true}
	cu := NewCounter(pt, []*PerpetualOutcome{unsat, pos[0]})
	rng := rand.New(rand.NewSource(3))
	bs := randomBufs(rng, pt, 9)
	odo, err := cu.CountExhaustive(context.Background(), bs)
	if err != nil {
		t.Fatal(err)
	}
	fac2, ok, err := cu.CountFactorized(bs)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	requireSameCounts(t, "sb+unsat", fac2, odo)
	if fac2.Counts[0] != 0 {
		t.Errorf("unsatisfiable outcome counted %d frames", fac2.Counts[0])
	}
}

// TestFactorizedFallbackCaps covers both fallback guards: an outcome
// set past the planner cap declines up front, and an adversarially
// overlapping chain (the same nonempty outcome duplicated 20 times, so
// no inclusion–exclusion subtree ever prunes) trips the term budget at
// run time. CountExhaustiveAuto must return odometer-identical tallies
// through either fallback.
func TestFactorizedFallbackCaps(t *testing.T) {
	pt := mustConvert(t, "sb")
	pos, err := ConvertAllOutcomes(pt)
	if err != nil {
		t.Fatal(err)
	}

	huge := make([]*PerpetualOutcome, maxFactorOutcomes+1)
	for i := range huge {
		huge[i] = pos[i%len(pos)]
	}
	if _, ok, err := NewCounter(pt, huge).CountFactorized(NewBufSet(pt, 4)); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatalf("%d outcomes accepted past planner cap %d", len(huge), maxFactorOutcomes)
	}

	const n = 20
	dup := make([]*PerpetualOutcome, n)
	for i := range dup {
		dup[i] = pos[0] // target holds on the lockstep diagonal: nonempty
	}
	c := NewCounter(pt, dup)
	bs := lockstepBufs(pt, n)
	if _, ok, err := c.CountFactorized(bs); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("fully overlapping outcome chain did not trip the term budget")
	}
	auto, err := c.CountExhaustiveAuto(context.Background(), bs)
	if err != nil {
		t.Fatal(err)
	}
	odo, err := c.CountExhaustive(context.Background(), bs)
	if err != nil {
		t.Fatal(err)
	}
	requireSameCounts(t, "sb-dup", auto, odo)
}

// TestCountExhaustiveAutoMatches: the auto selector must be
// tally-identical to the odometer whichever path it takes.
func TestCountExhaustiveAutoMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, name := range []string{"sb", "mp", "iriw", "podwr001"} {
		pt := mustConvert(t, name)
		pos, err := ConvertAllOutcomes(pt)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCounter(pt, pos)
		bs := randomBufs(rng, pt, 10)
		auto, err := c.CountExhaustiveAuto(context.Background(), bs)
		if err != nil {
			t.Fatal(err)
		}
		odo, err := c.CountExhaustive(context.Background(), bs)
		if err != nil {
			t.Fatal(err)
		}
		requireSameCounts(t, name, auto, odo)
	}
}

// parseConvert converts an inline litmus source.
func parseConvert(t testing.TB, src string) *PerpetualTest {
	t.Helper()
	test, err := litmus.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := Convert(test)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// truncBufs keeps the first n iterations of bs, as an exhaustive cap
// does: the kept loads may observe stores from later iterations, whose
// bounds lie past the frame.
func truncBufs(pt *PerpetualTest, bs *BufSet, n int) *BufSet {
	out := &BufSet{N: n, Bufs: make([][]int64, len(bs.Bufs))}
	for t, b := range bs.Bufs {
		out.Bufs[t] = b[:pt.Reads[t]*n]
	}
	return out
}

// Shapes the suite lacks. In tl2-mixed, P0 and P1 each read a location
// a store-only thread also writes, so an outcome's (0,1) pair is a row
// interval, a column interval, a predicate relation or unconstrained
// depending on which store each load observes, and inclusion–exclusion
// intersects every mix of forms. The two TL=3 shapes have no interval
// form on their (1,2) pair, so the triangle count streams its rows:
// P1 and P2 observe each other's stores (cross bounds from both ends),
// or both observe the store-only P3 (a shared existential).
const (
	tl2MixedSrc = `X86 tl2-mixed
{ x=0; y=0; }
 P0          | P1          | P2         | P3         ;
 MOV [x],$1  | MOV [y],$1  | MOV [x],$2 | MOV [y],$2 ;
 MOV EAX,[y] | MOV EAX,[x] |            |            ;
exists (0:EAX=1 /\ 1:EAX=2)
`
	tl3CrossSrc = `X86 tl3-cross
{ x=0; y=0; z=0; }
 P0          | P1          | P2          ;
 MOV [x],$1  | MOV [y],$1  | MOV [z],$1  ;
 MOV EAX,[y] | MOV EAX,[z] | MOV EAX,[y] ;
             |             | MOV EBX,[x] ;
exists (0:EAX=0 /\ 1:EAX=0 /\ 2:EAX=1 /\ 2:EBX=0)
`
	tl3ExistSrc = `X86 tl3-exist
{ x=0; y=0; z=0; w=0; }
 P0          | P1          | P2          | P3         ;
 MOV [x],$1  | MOV [y],$1  | MOV [z],$1  | MOV [w],$1 ;
 MOV EAX,[y] | MOV EAX,[w] | MOV EAX,[w] |            ;
             | MOV EBX,[z] | MOV EBX,[x] |            ;
exists (0:EAX=0 /\ 1:EAX=1 /\ 1:EBX=0 /\ 2:EAX=0 /\ 2:EBX=0)
`
)

// TestFactorizedPairForms pins which representation each shape's
// innermost pair takes for its target, so the multi-word differential
// below provably drives every counting path: row intervals (podwr001,
// tl2-mixed), column intervals (safe007) and streamed predicate rows
// (the two TL=3 inline shapes).
func TestFactorizedPairForms(t *testing.T) {
	for _, tc := range []struct {
		pt   *PerpetualTest
		form pairForm
	}{
		{parseConvert(t, tl2MixedSrc), pairRows},
		{mustConvert(t, "podwr001"), pairRows},
		{mustConvert(t, "safe007"), pairCols},
		{parseConvert(t, tl3CrossSrc), pairPreds},
		{parseConvert(t, tl3ExistSrc), pairPreds},
	} {
		target, err := NewTargetCounter(tc.pt)
		if err != nil {
			t.Fatal(err)
		}
		plans, ok := target.factorPlans()
		if !ok {
			t.Fatalf("%s: target not factorizable", tc.pt.Orig.Name)
		}
		if got := plans[0].form[innerSlot(tc.pt.TL())]; got != tc.form {
			t.Errorf("%s: innermost pair form = %d, want %d", tc.pt.Orig.Name, got, tc.form)
		}
	}
}

// fuzzTests lists the factorizable shapes the counter fuzz draws from:
// every convertible suite test plus the inline shapes.
func fuzzTests(t testing.TB) []*PerpetualTest {
	var pts []*PerpetualTest
	for _, e := range litmus.Suite() {
		if pt, err := Convert(e.Test); err == nil {
			pts = append(pts, pt)
		}
	}
	return append(pts, parseConvert(t, tl2MixedSrc), parseConvert(t, tl3CrossSrc), parseConvert(t, tl3ExistSrc))
}

// FuzzFactorizedVsOdometer drives the factorized counter against the
// odometer over random buffers and random outcome subsets (drawn with
// replacement, in random order, so inclusion–exclusion intersections
// and overlapping chains run) with multi-word rows — n up to 130 at
// TL ≤ 2 and 40 at TL=3 — and, for odd seeds, loads observing
// iterations past the frame. A declined pass is checked through
// CountExhaustiveAuto's fallback instead.
func FuzzFactorizedVsOdometer(f *testing.F) {
	pts := fuzzTests(f)
	for i := range pts {
		f.Add(uint8(i), uint8(40+i*7), uint64(i)*0x9e3779b97f4a7c15, int64(i))
	}
	f.Fuzz(func(t *testing.T, which, nRaw uint8, pick uint64, seed int64) {
		pt := pts[int(which)%len(pts)]
		maxN := 130
		if pt.TL() == 3 {
			maxN = 40
		}
		n := 1 + int(nRaw)%maxN
		pos, err := ConvertAllOutcomes(pt)
		if err != nil {
			t.Fatal(err)
		}
		pr := rand.New(rand.NewSource(int64(pick)))
		sel := make([]*PerpetualOutcome, 1+pr.Intn(5))
		for i := range sel {
			sel[i] = pos[pr.Intn(len(pos))]
		}
		c := NewCounter(pt, sel)
		// Odd seeds draw loads from twice the frame, as an exhaustive cap
		// leaves them.
		span := n + int(seed&1)*n
		bs := truncBufs(pt, randomBufs(rand.New(rand.NewSource(seed)), pt, span), n)
		odo, err := c.CountExhaustive(context.Background(), bs)
		if err != nil {
			t.Fatal(err)
		}
		fac, ok, err := c.CountFactorized(bs)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if fac, err = c.CountExhaustiveAuto(context.Background(), bs); err != nil {
				t.Fatal(err)
			}
		}
		requireSameCounts(t, pt.Orig.Name, fac, odo)
	})
}

// TestBitRangeHelpers checks the word-edge masking of setRange,
// bitsBelow and rowInto's row interval against per-bit references on
// every interval of a few sizes around word boundaries.
func TestBitRangeHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 63, 64, 65, 130} {
		words := bitsetWords(n)
		pattern := make(bitset, words)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				pattern[i>>6] |= 1 << uint(i&63)
			}
		}
		pre := make([]int32, words+1)
		for w := range pattern {
			pre[w+1] = pre[w] + int32(pattern[w:w+1].popcount())
		}
		for x := 0; x <= n; x++ {
			var want int32
			for i := 0; i < x; i++ {
				if pattern[i>>6]&(1<<uint(i&63)) != 0 {
					want++
				}
			}
			if got := bitsBelow(pre, pattern, int32(x)); got != want {
				t.Fatalf("n=%d: bitsBelow(%d) = %d, want %d", n, x, got, want)
			}
		}
		b := make(bitset, words)
		var sc factorScratch
		row := make(bitset, words)
		r := &pairRel{form: pairRows, lo: make([]int32, 1), hi: make([]int32, 1)}
		for lo := 0; lo <= n; lo++ {
			for hi := -1; hi < n; hi++ {
				setRange(b, int32(lo), int32(hi))
				for w := range row {
					row[w] = ^uint64(0) // rowInto must clear outside the interval
				}
				r.lo[0], r.hi[0] = int32(lo), int32(hi)
				cnt := sc.rowInto(row, r, 0, pattern)
				var members int64
				for i := 0; i < words*64; i++ {
					in := i >= lo && i <= hi
					if got := b[i>>6]&(1<<uint(i&63)) != 0; got != in {
						t.Fatalf("n=%d: setRange(%d, %d) bit %d = %v", n, lo, hi, i, got)
					}
					want := in && pattern[i>>6]&(1<<uint(i&63)) != 0
					if want {
						members++
					}
					if got := row[i>>6]&(1<<uint(i&63)) != 0; got != want {
						t.Fatalf("n=%d: rowInto(%d, %d) bit %d = %v", n, lo, hi, i, got)
					}
				}
				if cnt != members {
					t.Fatalf("n=%d: rowInto(%d, %d) counted %d, want %d", n, lo, hi, cnt, members)
				}
			}
		}
	}
}

// TestFactorizedMultiWordMatchesOdometer holds the factorized counter
// to the odometer on random buffers at sizes around word boundaries
// (63, 64, 65, 129 at TL=2; 63, 65 at TL=3), so word-edge masking,
// multi-word sweeps and prefix popcounts across words are exercised:
// target-only counters (the interval count) and full outcome sets
// (inclusion–exclusion, including every mix of pair forms in
// tl2-mixed), over whole buffers and capped ones whose loads observe
// iterations past the frame. The real-run-buffer half is
// TestFactorizedSimBufsMatchOdometer.
func TestFactorizedMultiWordMatchesOdometer(t *testing.T) {
	var pts []*PerpetualTest
	for _, name := range []string{"sb", "iriw", "rwc-fenced", "safe027", "podwr001", "safe007"} {
		pts = append(pts, mustConvert(t, name))
	}
	pts = append(pts, parseConvert(t, tl2MixedSrc), parseConvert(t, tl3CrossSrc), parseConvert(t, tl3ExistSrc))
	rng := rand.New(rand.NewSource(11))
	for _, pt := range pts {
		name := pt.Orig.Name
		target, err := NewTargetCounter(pt)
		if err != nil {
			t.Fatal(err)
		}
		pos, err := ConvertAllOutcomes(pt)
		if err != nil {
			t.Fatal(err)
		}
		full := NewCounter(pt, pos)
		ns := []int{63, 64, 65, 129}
		if pt.TL() == 3 {
			ns = []int{63, 65}
		}
		for _, n := range ns {
			for _, bs := range []*BufSet{randomBufs(rng, pt, n), truncBufs(pt, randomBufs(rng, pt, 2*n), n)} {
				for _, c := range []*Counter{target, full} {
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
			}
		}
	}
}
