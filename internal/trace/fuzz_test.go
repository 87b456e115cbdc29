package trace_test

import (
	"math/rand"
	"testing"

	"perple/internal/litmus"
	"perple/internal/memmodel"
	"perple/internal/trace"
)

// fuzzEdges is the cycle alphabet a fuzz byte indexes (modulo its length).
var fuzzEdges = []litmus.EdgeSpec{
	litmus.Rfe, litmus.Fre, litmus.Wse,
	litmus.PodWR, litmus.PodRR, litmus.PodRW, litmus.PodWW,
	litmus.FencedWR, litmus.FencedRR, litmus.FencedRW, litmus.FencedWW,
}

// fuzzTest decodes test bytes into a litmus test, or nil when they name
// none. An even first byte builds a diy cycle from the remaining bytes
// (one edge each); an odd first byte seeds litmus.Generate, the next
// three bytes picking threads (2–4), instructions per thread (1–4) and
// fence probability, the rest the RNG seed.
func fuzzTest(data []byte) *litmus.Test {
	if len(data) < 2 {
		return nil
	}
	if data[0]%2 == 0 {
		edges := make([]litmus.EdgeSpec, 0, len(data)-1)
		for _, b := range data[1:] {
			edges = append(edges, fuzzEdges[int(b)%len(fuzzEdges)])
		}
		tc, err := litmus.FromCycle("fuzzcycle", edges...)
		if err != nil {
			return nil
		}
		return tc
	}
	if len(data) < 4 {
		return nil
	}
	threads := 2 + int(data[1])%3
	cfg := litmus.GenConfig{
		MinThreads: threads,
		MaxThreads: threads,
		MaxInstrs:  1 + int(data[2])%4,
		Locs:       []litmus.Loc{"x", "y", "z"},
		FenceProb:  float64(data[3]%4) / 10,
	}
	var seed int64
	for _, b := range data[4:] {
		seed = seed*131 + int64(b)
	}
	return litmus.Generate(rand.New(rand.NewSource(seed)), cfg, "fuzzgen")
}

// fuzzWitness decodes witness bytes into rf and co arrays for the test,
// one byte per load then one per store (missing bytes read as 0). A
// load's byte picks init or a store of its location, except 0xff, which
// names store index k+1 whatever its location or range. A store's byte
// is a Fisher–Yates swap over the identity drain order, except 0xff,
// which repeats the first store.
func fuzzWitness(tc *litmus.Test, data []byte) (rf, co []int32) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	events, loadEv, storeEv := naiveFlatten(tc)
	for k, le := range loadEv {
		cands := []int32{-1}
		for st, se := range storeEv {
			if events[se].loc == events[le].loc {
				cands = append(cands, int32(st))
			}
		}
		if b := next(); b == 0xff {
			rf = append(rf, int32(k+1))
		} else {
			rf = append(rf, cands[int(b)%len(cands)])
		}
	}
	for st := range storeEv {
		co = append(co, int32(st))
	}
	for i := range co {
		if b := next(); b == 0xff {
			co[i] = co[0]
		} else {
			j := i + int(b)%(len(co)-i)
			co[i], co[j] = co[j], co[i]
		}
	}
	return rf, co
}

// naiveWellFormed reports whether every rf source is init or a store of
// the load's location and co is a permutation of the stores.
func naiveWellFormed(tc *litmus.Test, rf, co []int32) bool {
	events, loadEv, storeEv := naiveFlatten(tc)
	for k, src := range rf {
		if src < -1 || int(src) >= len(storeEv) || (src >= 0 && events[storeEv[src]].loc != events[loadEv[k]].loc) {
			return false
		}
	}
	seen := make([]bool, len(storeEv))
	for _, st := range co {
		if st < 0 || int(st) >= len(storeEv) || seen[st] {
			return false
		}
		seen[st] = true
	}
	return true
}

// FuzzCheckerVsNaive requires Checker.Check to agree with the quadratic
// reference under SC, TSO and PSO on fuzz-chosen tests and witnesses,
// and to return an error, never panic, on a malformed witness. The
// first byte splits the input into test bytes (the next 2 + data[0]%8)
// and witness bytes (the rest).
func FuzzCheckerVsNaive(f *testing.F) {
	f.Add([]byte{3, 0, 3, 1, 3, 1, 0, 0, 0, 0})                // sb, both loads read init
	f.Add([]byte{3, 0, 6, 0, 4, 1, 1, 0, 0, 0})                // mp, flag seen, data stale
	f.Add([]byte{3, 0, 10, 0, 4, 1, 1, 0, 0, 0})               // mp with fenced stores
	f.Add([]byte{6, 1, 1, 2, 1, 0, 7, 9, 1, 2, 0, 1, 0xff, 1}) // generated, malformed co
	f.Add([]byte{3, 1, 0, 2, 3, 42, 1, 1, 1, 0xff})            // generated, forwarding
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		split := min(len(data), 3+int(data[0])%8)
		tc := fuzzTest(data[1:split])
		if tc == nil {
			return
		}
		rf, co := fuzzWitness(tc, data[split:])
		wellFormed := naiveWellFormed(tc, rf, co)
		l, err := trace.NewLayout(tc)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		for _, m := range memmodel.Models {
			c, err := trace.NewCheckerLayout(l, m)
			if err != nil {
				t.Fatal(err)
			}
			v, err := checkOne(c, rf, co)
			if !wellFormed {
				if err == nil {
					t.Fatalf("%s under %v: malformed witness rf=%v co=%v accepted without error", tc.Name, m, rf, co)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s under %v: well-formed witness rf=%v co=%v: %v", tc.Name, m, rf, co, err)
			}
			if got, want := v == nil, naiveConsistent(tc, rf, co, m); got != want {
				t.Fatalf("%s under %v: checker=%v reference=%v\nrf=%v co=%v\n%s", tc.Name, m, got, want, rf, co, litmus.Format(tc))
			}
		}
	})
}
