package harness

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"perple/internal/core"
	"perple/internal/litmus"
	"perple/internal/sim"
)

// litmus7Shards runs k independent shards of the same test under
// distinct seeds, the way a campaign splits an iteration budget.
func litmus7Shards(t *testing.T, k, n int) []*Litmus7Result {
	t.Helper()
	test, err := litmus.SuiteTest("sb")
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*Litmus7Result, k)
	for i := range shards {
		res, err := RunLitmus7(context.Background(), test, n, sim.ModeTimebase, test.AllOutcomes(), sim.DefaultConfig().WithSeed(int64(i)+100), Litmus7Options{})
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = res
	}
	return shards
}

func cloneLitmus7(r *Litmus7Result) *Litmus7Result {
	c := *r
	c.Histogram = make(map[string]int64, len(r.Histogram))
	for k, v := range r.Histogram {
		c.Histogram[k] = v
	}
	c.OutcomeCounts = append([]int64(nil), r.OutcomeCounts...)
	return &c
}

// mergeLitmus7Tree merges the shard slice in a random binary grouping,
// exercising associativity (not just left-fold order).
func mergeLitmus7Tree(t *testing.T, rng *rand.Rand, shards []*Litmus7Result) *Litmus7Result {
	t.Helper()
	if len(shards) == 1 {
		return cloneLitmus7(shards[0])
	}
	cut := 1 + rng.Intn(len(shards)-1)
	left := mergeLitmus7Tree(t, rng, shards[:cut])
	right := mergeLitmus7Tree(t, rng, shards[cut:])
	if err := left.Merge(right); err != nil {
		t.Fatal(err)
	}
	return left
}

// TestLitmus7MergeOrderInvariant is the merge property test: any
// permutation and any grouping of per-shard results merges to identical
// campaign totals.
func TestLitmus7MergeOrderInvariant(t *testing.T) {
	shards := litmus7Shards(t, 6, 300)
	rng := rand.New(rand.NewSource(42))

	baseline := mergeLitmus7Tree(t, rng, shards)
	var wantN int
	for _, s := range shards {
		wantN += s.N
	}
	if baseline.N != wantN {
		t.Fatalf("merged N = %d, want %d", baseline.N, wantN)
	}

	for round := 0; round < 25; round++ {
		perm := rng.Perm(len(shards))
		shuffled := make([]*Litmus7Result, len(shards))
		for i, p := range perm {
			shuffled[i] = shards[p]
		}
		got := mergeLitmus7Tree(t, rng, shuffled)
		if got.TargetCount != baseline.TargetCount || got.N != baseline.N || got.Ticks != baseline.Ticks {
			t.Fatalf("round %d: totals differ: target %d/%d, n %d/%d, ticks %d/%d",
				round, got.TargetCount, baseline.TargetCount, got.N, baseline.N, got.Ticks, baseline.Ticks)
		}
		if !reflect.DeepEqual(got.Histogram, baseline.Histogram) {
			t.Fatalf("round %d: histograms differ after reordering", round)
		}
		if !reflect.DeepEqual(got.OutcomeCounts, baseline.OutcomeCounts) {
			t.Fatalf("round %d: outcome counts differ after reordering", round)
		}
	}
}

func TestLitmus7MergeRejectsMismatch(t *testing.T) {
	shards := litmus7Shards(t, 1, 50)
	other, err := litmus.SuiteTest("mp")
	if err != nil {
		t.Fatal(err)
	}
	otherRes, err := RunLitmus7(context.Background(), other, 50, sim.ModeTimebase, nil, sim.DefaultConfig(), Litmus7Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cloneLitmus7(shards[0]).Merge(otherRes); err == nil {
		t.Fatal("merging results of different tests should fail")
	}
	modeRes, err := RunLitmus7(context.Background(), shards[0].Test, 50, sim.ModeUser, shards[0].Test.AllOutcomes(), sim.DefaultConfig(), Litmus7Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cloneLitmus7(shards[0]).Merge(modeRes); err == nil {
		t.Fatal("merging results of different modes should fail")
	}
}

func perpleShards(t *testing.T, k, n int) []*PerpLEResult {
	t.Helper()
	test, err := litmus.SuiteTest("sb")
	if err != nil {
		t.Fatal(err)
	}
	pt, err := core.Convert(test)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := core.NewTargetCounter(pt)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*PerpLEResult, k)
	for i := range shards {
		res, err := RunPerpLE(context.Background(), pt, counter, n, PerpLEOptions{Exhaustive: true, Heuristic: true},
			sim.DefaultConfig().WithSeed(int64(i)+500))
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = res
	}
	return shards
}

func clonePerpLE(r *PerpLEResult) *PerpLEResult {
	c := *r
	if r.Exhaustive != nil {
		cr := *r.Exhaustive
		cr.Counts = append([]int64(nil), r.Exhaustive.Counts...)
		c.Exhaustive = &cr
	}
	if r.Heuristic != nil {
		cr := *r.Heuristic
		cr.Counts = append([]int64(nil), r.Heuristic.Counts...)
		c.Heuristic = &cr
	}
	return &c
}

func mergePerpLETree(t *testing.T, rng *rand.Rand, shards []*PerpLEResult) *PerpLEResult {
	t.Helper()
	if len(shards) == 1 {
		return clonePerpLE(shards[0])
	}
	cut := 1 + rng.Intn(len(shards)-1)
	left := mergePerpLETree(t, rng, shards[:cut])
	right := mergePerpLETree(t, rng, shards[cut:])
	if err := left.Merge(right); err != nil {
		t.Fatal(err)
	}
	return left
}

// TestPerpLEMergeOrderInvariant is the PerpLE half of the merge property
// test: counter tallies and time accounts are permutation- and
// grouping-invariant.
func TestPerpLEMergeOrderInvariant(t *testing.T) {
	shards := perpleShards(t, 5, 200)
	rng := rand.New(rand.NewSource(7))
	baseline := mergePerpLETree(t, rng, shards)

	for round := 0; round < 25; round++ {
		perm := rng.Perm(len(shards))
		shuffled := make([]*PerpLEResult, len(shards))
		for i, p := range perm {
			shuffled[i] = shards[p]
		}
		got := mergePerpLETree(t, rng, shuffled)
		if got.N != baseline.N || got.ExecTicks != baseline.ExecTicks ||
			got.ExhCountTicks != baseline.ExhCountTicks || got.HeurCountTicks != baseline.HeurCountTicks {
			t.Fatalf("round %d: tick totals differ after reordering", round)
		}
		if !reflect.DeepEqual(got.Exhaustive.Counts, baseline.Exhaustive.Counts) ||
			got.Exhaustive.Frames != baseline.Exhaustive.Frames {
			t.Fatalf("round %d: exhaustive counts differ after reordering", round)
		}
		if !reflect.DeepEqual(got.Heuristic.Counts, baseline.Heuristic.Counts) ||
			got.Heuristic.Frames != baseline.Heuristic.Frames {
			t.Fatalf("round %d: heuristic counts differ after reordering", round)
		}
	}
}

func TestPerpLEMergeRejectsCounterMismatch(t *testing.T) {
	full := perpleShards(t, 1, 100)[0]
	heurOnly := clonePerpLE(full)
	heurOnly.Exhaustive = nil
	if err := clonePerpLE(full).Merge(heurOnly); err == nil {
		t.Fatal("merging exhaustive+heuristic with heuristic-only should fail")
	}
}
