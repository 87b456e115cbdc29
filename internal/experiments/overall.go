package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"perple/internal/core"
	"perple/internal/harness"
	"perple/internal/litmus"
	"perple/internal/sim"
	"perple/internal/stats"
)

// OverallResult reproduces the Section VII-G overall-impact numbers for a
// full 88-test campaign: 34 convertible tests run under PerpLE-heuristic,
// the rest under litmus7 user mode, against running all 88 under litmus7
// user mode.
type OverallResult struct {
	N int
	// Convertible and NonConvertible are the corpus sizes (34 and 54).
	Convertible, NonConvertible int
	// AllLitmus7Ticks is the all-88-under-litmus7 campaign runtime.
	AllLitmus7Ticks int64
	// MixedTicks is the PerpLE-for-convertible campaign runtime.
	MixedTicks int64
	// CampaignSpeedup = AllLitmus7Ticks / MixedTicks (paper: 1.47x).
	CampaignSpeedup float64
	// DetectionImprovement is the mean relative target-outcome
	// detection-rate improvement over litmus7 user for the convertible
	// allowed-target tests (paper: >20000x at 10k iterations).
	DetectionImprovement float64
}

// Overall regenerates Section VII-G. The original 88-test corpus is the
// 34-test perpetual suite plus non-convertible tests; the latter are the
// six hand-written final-state tests plus deterministic generator output
// (DESIGN.md documents the substitution).
func Overall(w io.Writer, opts Options) (*OverallResult, error) {
	n := opts.n(10000)
	res := &OverallResult{N: n}
	cfg := opts.cfg()

	// Assemble the 88-test corpus.
	suite := litmus.Suite()
	nonConv := litmus.NonConvertible()
	need := 88 - len(suite) - len(nonConv)
	if need > 0 {
		gcfg := litmus.DefaultGenConfig()
		gcfg.MemTarget = true
		rng := rand.New(rand.NewSource(opts.seed() + 888))
		nonConv = append(nonConv, litmus.GenerateCorpus(rng, gcfg, "nc", need)...)
	}
	res.Convertible = len(suite)
	res.NonConvertible = len(nonConv)

	// Campaign A: everything under litmus7 user mode. The suite's runs
	// are kept: they are also Campaign B's detection-rate baselines.
	var ws harness.Workspace
	user := make([]Measurement, len(suite))
	for i, e := range suite {
		lr, err := ws.RunLitmus7(context.Background(), e.Test, n, sim.ModeUser, nil, cfg, harness.Litmus7Options{})
		if err != nil {
			return nil, err
		}
		user[i] = Measurement{Target: lr.TargetCount, Ticks: lr.Ticks}
		res.AllLitmus7Ticks += lr.Ticks
	}
	var nonConvTicks int64
	for _, t := range nonConv {
		lr, err := ws.RunLitmus7(context.Background(), t, n, sim.ModeUser, nil, cfg, harness.Litmus7Options{})
		if err != nil {
			return nil, err
		}
		nonConvTicks += lr.Ticks
	}
	res.AllLitmus7Ticks += nonConvTicks

	// Campaign B: PerpLE-heuristic for the convertible tests, litmus7 for
	// the rest. Also collect the detection-rate improvement while here.
	var ratios []float64
	for i, e := range suite {
		pt, err := core.Convert(e.Test)
		if err != nil {
			return nil, err
		}
		counter, err := core.NewTargetCounter(pt)
		if err != nil {
			return nil, err
		}
		pr, err := ws.RunPerpLE(context.Background(), pt, counter, n, harness.PerpLEOptions{Heuristic: true}, cfg)
		if err != nil {
			return nil, err
		}
		res.MixedTicks += pr.TotalTicksHeuristic()

		if e.Allowed {
			baseRate := stats.Rate(user[i].Target, user[i].Ticks)
			if baseRate > 0 {
				perpRate := stats.Rate(pr.Heuristic.Counts[0], pr.TotalTicksHeuristic())
				ratios = append(ratios, perpRate/baseRate)
			}
		}
	}
	res.MixedTicks += nonConvTicks
	res.CampaignSpeedup = float64(res.AllLitmus7Ticks) / float64(res.MixedTicks)
	res.DetectionImprovement = stats.Mean(ratios)

	fmt.Fprintf(w, "Section VII-G: overall impact on testing, %d iterations per test\n\n", n)
	fmt.Fprintf(w, "corpus: %d convertible (perpetual suite) + %d non-convertible = %d tests\n",
		res.Convertible, res.NonConvertible, res.Convertible+res.NonConvertible)
	fmt.Fprintf(w, "all tests under litmus7 user:            %12d ticks\n", res.AllLitmus7Ticks)
	fmt.Fprintf(w, "PerpLE for convertible, litmus7 for rest: %11d ticks\n", res.MixedTicks)
	fmt.Fprintf(w, "campaign speedup (paper: 1.47x):          %11.2fx\n", res.CampaignSpeedup)
	fmt.Fprintf(w, "mean detection-rate improvement on convertible allowed tests\n")
	fmt.Fprintf(w, "  (paper: >20000x at 10k iterations):     %11.0fx\n", res.DetectionImprovement)
	return res, nil
}
