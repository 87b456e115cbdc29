package axiom

import (
	"errors"
	"math/rand"
	"testing"

	"perple/internal/litmus"
	"perple/internal/memmodel"
)

// fuzzEdges is the cycle alphabet a fuzz byte indexes (modulo its length).
var fuzzEdges = []litmus.EdgeSpec{
	litmus.Rfe, litmus.Fre, litmus.Wse,
	litmus.PodWR, litmus.PodRR, litmus.PodRW, litmus.PodWW,
	litmus.FencedWR, litmus.FencedRR, litmus.FencedRW, litmus.FencedWW,
}

// cycleInput encodes a cycle as a fuzz input: an even selector byte, then
// one alphabet index per edge.
func cycleInput(edges ...litmus.EdgeSpec) []byte {
	b := []byte{0}
	for _, e := range edges {
		for i, a := range fuzzEdges {
			if a == e {
				b = append(b, byte(i))
			}
		}
	}
	return b
}

// fuzzTest decodes a fuzz input into a litmus test, or nil when the input
// names none. An even first byte builds a diy cycle from the remaining
// bytes (one edge each). An odd first byte seeds litmus.Generate: the
// next four bytes pick threads (2–4), instructions per thread (1–3),
// locations (1–3) and fence probability, the rest the RNG seed; bit 1 of
// the first byte asks for a final-memory target.
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
	if len(data) < 5 {
		return nil
	}
	threads := 2 + int(data[1])%3
	cfg := litmus.GenConfig{
		MinThreads: threads,
		MaxThreads: threads,
		MaxInstrs:  1 + int(data[2])%3,
		Locs:       []litmus.Loc{"x", "y", "z"}[:1+int(data[3])%3],
		FenceProb:  float64(data[4]%4) / 10,
		MemTarget:  data[0]&2 != 0,
	}
	var seed int64
	for _, b := range data[5:] {
		seed = seed*131 + int64(b)
	}
	return litmus.Generate(rand.New(rand.NewSource(seed)), cfg, "fuzzgen")
}

// FuzzAxiomVsOperational requires axiom's SC, TSO and PSO result sets to
// equal the operational store-buffer machine's on fuzz-chosen cycle and
// generated tests. A test over the default cutoff must be refused with
// *TooLargeError, the only error accepted.
func FuzzAxiomVsOperational(f *testing.F) {
	f.Add(cycleInput(litmus.PodWR, litmus.Fre, litmus.PodWR, litmus.Fre))                         // sb
	f.Add(cycleInput(litmus.PodWW, litmus.Rfe, litmus.PodRR, litmus.Fre))                         // mp
	f.Add(cycleInput(litmus.Rfe, litmus.PodRR, litmus.Fre, litmus.Rfe, litmus.PodRR, litmus.Fre)) // iriw
	f.Add(cycleInput(litmus.Rfe, litmus.PodRW, litmus.Rfe, litmus.PodRR, litmus.Fre))             // wrc
	f.Add(cycleInput(litmus.FencedWR, litmus.Fre, litmus.FencedWR, litmus.Fre))                   // amd5
	f.Add([]byte{1, 1, 2, 1, 1, 42})                                                              // generated, 3 threads
	f.Add([]byte{3, 0, 2, 2, 0, 7})                                                               // generated, memory target
	f.Fuzz(func(t *testing.T, data []byte) {
		tc := fuzzTest(data)
		if tc == nil {
			return
		}
		for _, m := range memmodel.Models {
			got, err := allowedSet(tc, m, DefaultLimits())
			var tle *TooLargeError
			if errors.As(err, &tle) {
				return
			}
			if err != nil {
				t.Fatalf("%s under %v: %v\n%s", tc.Name, m, err, litmus.Format(tc))
			}
			want := memmodelKeys(tc, memmodel.OperationalAllowedSet(tc, m))
			if !diffKeys(t, tc.Name, m.String()+" vs operational", stateKeys(tc, got), want) {
				t.Fatalf("failing test:\n%s", litmus.Format(tc))
			}
		}
	})
}
