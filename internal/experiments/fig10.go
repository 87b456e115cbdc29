package experiments

import (
	"fmt"
	"io"

	"perple/internal/litmus"
	"perple/internal/stats"
)

// Fig10Result holds the runtime comparison of Figure 10: simulated
// runtimes (execution plus outcome counting) per test and tool, and the
// speedups relative to litmus7 user mode.
type Fig10Result struct {
	N     int
	Tests []string
	// Ticks[test][tool] is the total simulated runtime.
	Ticks map[string]map[Tool]int64
	// Speedup[test][tool] = Ticks[test][user] / Ticks[test][tool].
	Speedup map[string]map[Tool]float64
	// GeoSpeedup[tool] is the geometric-average speedup over the suite.
	GeoSpeedup map[Tool]float64
	// HeurOverExh is the geometric-average speedup of the heuristic
	// counter over the exhaustive counter (the paper reports 305x).
	HeurOverExh float64
}

// Fig10 regenerates Figure 10: relative speedups of every tool over
// litmus7 user mode across the suite, 10k iterations by default. The
// exhaustive counter's frame space is capped per Options (the paper's
// own conclusion is that it is impractical at scale); its modelled
// counting cost is extrapolated to the full N^TL frame space so the
// reported slowdown reflects the algorithm, not the cap.
func Fig10(w io.Writer, opts Options) (*Fig10Result, error) {
	n := opts.n(10000)
	res := &Fig10Result{
		N:          n,
		Ticks:      map[string]map[Tool]int64{},
		Speedup:    map[string]map[Tool]float64{},
		GeoSpeedup: map[Tool]float64{},
	}
	perTool := map[Tool][]float64{}
	var heurExhRatios []float64

	suite := litmus.Suite()
	allTicks := make([]map[Tool]int64, len(suite))
	err := forEachIndex(len(suite), opts.workers(), func(i int) error {
		e := suite[i]
		ms, err := runCells(e, Tools, n, opts)
		if err != nil {
			return fmt.Errorf("fig10: %s: %w", e.Test.Name, err)
		}
		ticks := make(map[Tool]int64, len(ms))
		for tool, m := range ms {
			ticks[tool] = m.Ticks
		}
		ticks[ToolPerpLEExh] = extrapolateExhaustive(e, ticks[ToolPerpLEExh], n, opts)
		allTicks[i] = ticks
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, e := range suite {
		res.Tests = append(res.Tests, e.Test.Name)
		ticks := allTicks[i]
		res.Ticks[e.Test.Name] = ticks
		sp := map[Tool]float64{}
		base := float64(ticks[ToolLitmus7User])
		for _, tool := range Tools {
			sp[tool] = base / float64(ticks[tool])
			perTool[tool] = append(perTool[tool], sp[tool])
		}
		res.Speedup[e.Test.Name] = sp
		heurExhRatios = append(heurExhRatios, float64(ticks[ToolPerpLEExh])/float64(ticks[ToolPerpLEHeur]))
	}
	for _, tool := range Tools {
		res.GeoSpeedup[tool] = stats.GeoMean(perTool[tool])
	}
	res.HeurOverExh = stats.GeoMean(heurExhRatios)

	fmt.Fprintf(w, "Figure 10: runtime speedup over litmus7 user mode (=1), %d iterations\n", n)
	fmt.Fprintf(w, "(runtimes include test execution and outcome counting; higher is better)\n\n")
	tb := stats.NewTable(append([]string{"test"}, toolNames()...)...)
	for _, name := range res.Tests {
		row := []interface{}{name}
		for _, tool := range Tools {
			row = append(row, res.Speedup[name][tool])
		}
		tb.AddRow(row...)
	}
	geo := []interface{}{"geomean"}
	for _, tool := range Tools {
		geo = append(geo, res.GeoSpeedup[tool])
	}
	tb.AddRow(geo...)
	fmt.Fprint(w, tb.String())

	fmt.Fprintf(w, "\nPerpLE-heuristic geometric-average speedups (paper: 8.89x user, 8.85x userfence,\n161.35x pthread, 17.56x timebase, 2.52x none):\n")
	heur := res.GeoSpeedup[ToolPerpLEHeur]
	for _, tool := range Litmus7Tools {
		fmt.Fprintf(w, "  over %-18s %6.2fx\n", tool.String()+":", heur/res.GeoSpeedup[tool])
	}
	fmt.Fprintf(w, "heuristic over exhaustive counter (paper: 305x): %.0fx\n", res.HeurOverExh)
	return res, nil
}

// extrapolateExhaustive scales the capped exhaustive counting cost to the
// full N^TL frame space, keeping Figure 10's runtime model faithful to
// the uncapped algorithm.
func extrapolateExhaustive(e litmus.SuiteEntry, measured int64, n int, opts Options) int64 {
	tl := e.Test.TL()
	cap := opts.exhaustiveCap(tl, n)
	if cap >= n {
		return measured
	}
	cfg := opts.cfg()
	cappedFrames := pow(int64(cap), tl)
	fullFrames := pow(int64(n), tl)
	countTicks := int64(float64(cappedFrames) * cfg.ExhFrameTick)
	execTicks := measured - countTicks
	return execTicks + int64(float64(fullFrames)*cfg.ExhFrameTick)
}

func pow(base int64, exp int) int64 {
	out := int64(1)
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}
