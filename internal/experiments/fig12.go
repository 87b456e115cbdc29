package experiments

import (
	"context"
	"fmt"
	"io"

	"perple/internal/core"
	"perple/internal/harness"
	"perple/internal/litmus"
	"perple/internal/stats"
)

// Fig12Result holds the thread-skew distribution of Figure 12.
type Fig12Result struct {
	N        int
	Samples  int
	Hist     *stats.Histogram
	MinSkew  int64
	MaxSkew  int64
	P5, P95  int64
	ZeroBand float64 // fraction of samples with |skew| ≤ 10 iterations
}

// Fig12 regenerates Figure 12: the probability density of the thread
// execution skew between the two threads of the perpetual sb test, 100k
// iterations by default.
func Fig12(w io.Writer, opts Options) (*Fig12Result, error) {
	n := opts.n(100000)
	test, err := litmus.SuiteTest("sb")
	if err != nil {
		return nil, err
	}
	pt, err := core.Convert(test)
	if err != nil {
		return nil, err
	}
	counter, err := core.NewTargetCounter(pt)
	if err != nil {
		return nil, err
	}
	run, err := harness.RunPerpLE(context.Background(), pt, counter, n,
		harness.PerpLEOptions{Heuristic: true, KeepBufs: true}, opts.cfg())
	if err != nil {
		return nil, err
	}
	samples := harness.MeasureSkew(pt, run.Bufs)
	vals := harness.SkewValues(samples, -1, -1)
	res := &Fig12Result{N: n, Samples: len(vals)}
	if len(vals) == 0 {
		return nil, fmt.Errorf("fig12: no skew samples from %d iterations", n)
	}
	res.MinSkew, res.MaxSkew = vals[0], vals[0]
	var zero int64
	for _, v := range vals {
		if v < res.MinSkew {
			res.MinSkew = v
		}
		if v > res.MaxSkew {
			res.MaxSkew = v
		}
		if v >= -10 && v <= 10 {
			zero++
		}
	}
	res.ZeroBand = float64(zero) / float64(len(vals))
	res.P5 = stats.Percentile(vals, 5)
	res.P95 = stats.Percentile(vals, 95)

	span := res.MaxSkew - res.MinSkew
	binWidth := span / 40
	if binWidth < 1 {
		binWidth = 1
	}
	hist, err := stats.NewHistogram(res.MinSkew, res.MaxSkew, binWidth)
	if err != nil {
		return nil, err
	}
	hist.AddAll(vals)
	res.Hist = hist

	fmt.Fprintf(w, "Figure 12: thread skew PDF, perpetual sb, %d iterations\n", n)
	fmt.Fprintf(w, "(skew = observer iteration - storer iteration, from decoded load values)\n\n")
	fmt.Fprint(w, hist.Render(60))
	fmt.Fprintf(w, "\nsamples: %d   range: [%d, %d]   P5..P95: [%d, %d]\n",
		res.Samples, res.MinSkew, res.MaxSkew, res.P5, res.P95)
	fmt.Fprintf(w, "fraction within |skew| <= 10: %.3f (distribution is densest near 0)\n", res.ZeroBand)
	return res, nil
}
