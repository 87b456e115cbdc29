package core

import (
	"math/rand"
	"runtime"
	"testing"

	"perple/internal/litmus"
)

// allocBytes reports the bytes fn allocates on the heap.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFactorizedScratchIsLinear pins the factorized counter's memory to
// O(N) per relation: counting the sb, iriw and safe007 targets at the
// campaign's exhaustive cap n=2000, each from a fresh Counter, allocates
// the per-outcome row intervals, predicate keys and cursors (about
// 0.5 MB for the three) and nothing N×N. One 2000×2000 bit matrix
// alone is 512 KB, and these three targets would need four.
func TestFactorizedScratchIsLinear(t *testing.T) {
	const n = 2000
	rng := rand.New(rand.NewSource(17))
	var total uint64
	for _, name := range []string{"sb", "iriw", "safe007"} {
		pt := mustConvert(t, name)
		bs := randomBufs(rng, pt, n)
		c, err := NewTargetCounter(pt)
		if err != nil {
			t.Fatal(err)
		}
		var ok bool
		got := allocBytes(func() { _, ok, err = c.CountFactorized(bs) })
		if err != nil || !ok {
			t.Fatalf("%s: ok=%v err=%v", name, ok, err)
		}
		t.Logf("%s: %d bytes", name, got)
		total += got
	}
	const bound = 800 << 10
	if total > bound {
		t.Fatalf("three fresh n=%d target counts allocated %d bytes, want ≤ %d", n, total, bound)
	}
}

// TestBufSetResetGrowsOneArray pins BufSet.Reset to one backing array:
// resetting one BufSet through every convertible suite test at n=10000,
// in suite order as a workspace runs them, allocates each growth of
// that array once (about 0.48 MB in all), not a growth per thread
// (1.1 MB).
func TestBufSetResetGrowsOneArray(t *testing.T) {
	const n = 10000
	var pts []*PerpetualTest
	for _, e := range litmus.Suite() {
		if pt, err := Convert(e.Test); err == nil {
			pts = append(pts, pt)
		}
	}
	var bs BufSet
	got := allocBytes(func() {
		for _, pt := range pts {
			bs.Reset(pt, n)
		}
	})
	t.Logf("%d tests: %d bytes", len(pts), got)
	const bound = 600 << 10
	if got > bound {
		t.Fatalf("Reset over the suite at n=%d allocated %d bytes, want ≤ %d", n, got, bound)
	}
	for _, pt := range pts {
		bs.Reset(pt, n)
		if err := bs.Validate(pt); err != nil {
			t.Fatal(err)
		}
	}
}
