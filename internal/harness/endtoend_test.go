package harness

import (
	"context"
	"math/rand"
	"testing"

	"perple/internal/core"
	"perple/internal/litmus"
	"perple/internal/memmodel"
	"perple/internal/sim"
)

// TestEndToEndRandomTests drives randomly generated litmus tests through
// the entire pipeline — classification, conversion, simulation, both
// counters, both harnesses — and checks the global soundness contract
// against the operational reference machine, which has no size cutoff
// (the generator's 3×3 shape can exceed the axiomatic checker's):
//
//   - if the target is TSO-forbidden, no tool may ever report it
//     (litmus7 in any mode, PerpLE with either counter);
//   - the heuristic count never exceeds the exhaustive count;
//   - litmus7's histogram total always equals the iteration count.
//
// This is the fuzzing version of the suite-based soundness tests: the
// suite covers the 34 curated shapes, this covers whatever the generator
// produces.
func TestEndToEndRandomTests(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	cfg := litmus.GenConfig{
		MinThreads: 2, MaxThreads: 3, MaxInstrs: 3,
		Locs: []litmus.Loc{"x", "y"}, FenceProb: 0.15,
	}
	rounds := 25
	iters := 400
	if testing.Short() {
		rounds, iters = 6, 150
	}
	for i := 0; i < rounds; i++ {
		test := litmus.Generate(rng, cfg, "e2e")
		forbidden := !memmodel.OperationalAllowed(test, test.Target, memmodel.TSO)
		simCfg := sim.DefaultConfig().WithSeed(int64(i) + 1)

		// litmus7, two representative modes.
		for _, mode := range []sim.Mode{sim.ModeTimebase, sim.ModeNone} {
			lr, err := RunLitmus7(context.Background(), test, iters, mode, nil, simCfg, Litmus7Options{})
			if err != nil {
				t.Fatalf("round %d: %v\n%s", i, err, litmus.Format(test))
			}
			var total int64
			for _, c := range lr.Histogram {
				total += c
			}
			if total != int64(iters) {
				t.Fatalf("round %d mode %v: histogram total %d != %d\n%s",
					i, mode, total, iters, litmus.Format(test))
			}
			if forbidden && lr.TargetCount > 0 {
				t.Fatalf("round %d mode %v: forbidden target observed %d times\n%s",
					i, mode, lr.TargetCount, litmus.Format(test))
			}
		}

		// PerpLE with both counters.
		pt, err := core.Convert(test)
		if err != nil {
			t.Fatalf("round %d: %v\n%s", i, err, litmus.Format(test))
		}
		counter, err := core.NewTargetCounter(pt)
		if err != nil {
			t.Fatalf("round %d: %v\n%s", i, err, litmus.Format(test))
		}
		pr, err := RunPerpLE(context.Background(), pt, counter, iters,
			PerpLEOptions{Exhaustive: true, Heuristic: true}, simCfg)
		if err != nil {
			t.Fatalf("round %d: %v\n%s", i, err, litmus.Format(test))
		}
		if forbidden && pr.Exhaustive.Counts[0] > 0 {
			t.Fatalf("round %d: exhaustive counted forbidden target %d times\n%s",
				i, pr.Exhaustive.Counts[0], litmus.Format(test))
		}
		if pr.Heuristic.Counts[0] > pr.Exhaustive.Counts[0] {
			t.Fatalf("round %d: heuristic %d > exhaustive %d\n%s",
				i, pr.Heuristic.Counts[0], pr.Exhaustive.Counts[0], litmus.Format(test))
		}

		// The odometer over the kept buffers agrees with the run's
		// exhaustive count (factorized when the outcome is product-form).
		pr2, err := RunPerpLE(context.Background(), pt, counter, iters, PerpLEOptions{KeepBufs: true}, simCfg)
		if err != nil {
			t.Fatal(err)
		}
		odo, err := counter.CountExhaustive(context.Background(), pr2.Bufs)
		if err != nil {
			t.Fatal(err)
		}
		if odo.Counts[0] != pr.Exhaustive.Counts[0] {
			t.Fatalf("round %d: odometer count %d != run count %d",
				i, odo.Counts[0], pr.Exhaustive.Counts[0])
		}
	}
}

// TestEndToEndRandomTestsPSO repeats the soundness contract on the PSO
// machine against the PSO classification.
func TestEndToEndRandomTestsPSO(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	genCfg := litmus.GenConfig{
		MinThreads: 2, MaxThreads: 3, MaxInstrs: 3,
		Locs: []litmus.Loc{"x", "y"}, FenceProb: 0.2,
	}
	rounds := 15
	if testing.Short() {
		rounds = 4
	}
	simCfg := sim.DefaultConfig()
	simCfg.Relaxation = memmodel.PSO
	for i := 0; i < rounds; i++ {
		test := litmus.Generate(rng, genCfg, "e2epso")
		forbidden := !memmodel.OperationalAllowed(test, test.Target, memmodel.PSO)
		lr, err := RunLitmus7(context.Background(), test, 300, sim.ModeTimebase, nil, simCfg.WithSeed(int64(i)+9), Litmus7Options{})
		if err != nil {
			t.Fatal(err)
		}
		if forbidden && lr.TargetCount > 0 {
			t.Fatalf("round %d: PSO-forbidden target observed %d times\n%s",
				i, lr.TargetCount, litmus.Format(test))
		}
		pt, err := core.Convert(test)
		if err != nil {
			t.Fatal(err)
		}
		counter, err := core.NewTargetCounter(pt)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := RunPerpLE(context.Background(), pt, counter, 300, PerpLEOptions{Exhaustive: true}, simCfg.WithSeed(int64(i)+9))
		if err != nil {
			t.Fatal(err)
		}
		if forbidden && pr.Exhaustive.Counts[0] > 0 {
			t.Fatalf("round %d: exhaustive counted PSO-forbidden target %d times\n%s",
				i, pr.Exhaustive.Counts[0], litmus.Format(test))
		}
	}
}
