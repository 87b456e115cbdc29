package experiments

import (
	"fmt"
	"io"
	"slices"

	"perple/internal/harness"
	"perple/internal/litmus"
	"perple/internal/stats"
)

// Fig11Point is one (iteration count, tool) bar of Figure 11.
type Fig11Point struct {
	N    int
	Tool Tool
	// Improvement is the arithmetic mean over allowed-target tests of
	// (tool's detection rate / litmus7-user's detection rate), omitting
	// tests with a zero baseline rate per Section VII-C.
	Improvement float64
	// TestsCounted is how many tests had a non-zero baseline.
	TestsCounted int
	// ExtraDetections is the total target count the tool reported on the
	// zero-baseline tests (the paper notes PerpLE still detects there).
	ExtraDetections int64
}

// Fig11Result holds the full sweep.
type Fig11Result struct {
	Ns     []int
	Points []Fig11Point
}

// Fig11 regenerates Figure 11: relative target-outcome detection-rate
// improvement over litmus7 user mode, for PerpLE-heuristic and the other
// litmus7 modes, across iteration counts. The paper sweeps 100..100M; the
// default here sweeps 100..100k (100..10k with Quick), which is past the
// point where the ratios stabilize on the simulated substrate. An
// explicit N not already in the sweep is appended to it.
func Fig11(w io.Writer, opts Options) (*Fig11Result, error) {
	ns := fig11Sweep(opts)
	res := &Fig11Result{Ns: ns}
	tools := append([]Tool{ToolPerpLEHeur}, Litmus7Tools...)

	allowed := litmus.AllowedSuite()
	var ws harness.Workspace
	for _, n := range ns {
		// Every tool's cells per test; the litmus7-user column is also
		// the baseline, measured once.
		cells := make([]map[Tool]Measurement, len(allowed))
		base := make([]float64, len(allowed))
		for i, e := range allowed {
			ms, err := runCells(&ws, e, tools, n, opts)
			if err != nil {
				return nil, fmt.Errorf("fig11: %s: %w", e.Test.Name, err)
			}
			cells[i] = ms
			m := ms[ToolLitmus7User]
			base[i] = stats.Rate(m.Target, m.Ticks)
		}
		for _, tool := range tools {
			pt := Fig11Point{N: n, Tool: tool}
			var ratios []float64
			for i := range allowed {
				m := cells[i][tool]
				rate := stats.Rate(m.Target, m.Ticks)
				if base[i] == 0 {
					pt.ExtraDetections += m.Target
					continue
				}
				ratios = append(ratios, rate/base[i])
			}
			pt.Improvement = stats.Mean(ratios)
			pt.TestsCounted = len(ratios)
			res.Points = append(res.Points, pt)
		}
	}

	fmt.Fprintf(w, "Figure 11: relative target-outcome detection-rate improvement over litmus7 user\n")
	fmt.Fprintf(w, "(arithmetic mean over allowed-target tests with non-zero baseline; higher is better)\n\n")
	tb := stats.NewTable("iterations", "tool", "improvement", "tests", "extra detections\n(zero-baseline tests)")
	for _, p := range res.Points {
		tb.AddRow(p.N, p.Tool.String(), p.Improvement, p.TestsCounted, p.ExtraDetections)
	}
	fmt.Fprint(w, tb.String())
	return res, nil
}

// fig11Sweep returns Figure 11's iteration counts: the default (or
// Quick) sweep, then opts.N when it is set and not already in it.
func fig11Sweep(opts Options) []int {
	ns := []int{100, 1000, 10000, 100000}
	if opts.Quick {
		ns = []int{100, 1000, 10000}
	}
	if opts.N > 0 && !slices.Contains(ns, opts.N) {
		ns = append(ns, opts.N)
	}
	return ns
}
