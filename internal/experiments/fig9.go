package experiments

import (
	"fmt"
	"io"

	"perple/internal/harness"
	"perple/internal/litmus"
	"perple/internal/stats"
)

// Fig9Result holds target-outcome occurrences per test and tool
// (Figure 9 of the paper).
type Fig9Result struct {
	N     int
	Tests []string
	// Allowed[i] is the Table II classification of Tests[i].
	Allowed []bool
	// Counts[test][tool] is the number of target-outcome occurrences.
	Counts map[string]map[Tool]int64
	// FalsePositives counts occurrences reported for forbidden targets
	// by any tool (must be zero).
	FalsePositives int64
	// MissedAllowed lists allowed-target tests that PerpLE-exhaustive
	// failed to expose (the paper reports none).
	MissedAllowed []string
}

// Fig9 regenerates Figure 9: target-outcome occurrences for each suite
// test under PerpLE (exhaustive and heuristic counters) and litmus7 in
// all five synchronization modes. The paper uses 10k iterations.
func Fig9(w io.Writer, opts Options) (*Fig9Result, error) {
	n := opts.n(10000)
	res := &Fig9Result{N: n, Counts: map[string]map[Tool]int64{}}
	suite := litmus.Suite()
	cells := make([]map[Tool]int64, len(suite))
	workers := opts.workers()
	wss := make([]harness.Workspace, workers)
	err := forEachIndex(len(suite), workers, func(w, i int) error {
		e := suite[i]
		ms, err := runCells(&wss[w], e, Tools, n, opts)
		if err != nil {
			return fmt.Errorf("fig9: %s: %w", e.Test.Name, err)
		}
		cell := make(map[Tool]int64, len(ms))
		for tool, m := range ms {
			cell[tool] = m.Target
		}
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, e := range suite {
		res.Tests = append(res.Tests, e.Test.Name)
		res.Allowed = append(res.Allowed, e.Allowed)
		cell := cells[i]
		if !e.Allowed {
			for _, tool := range Tools {
				res.FalsePositives += cell[tool]
			}
		}
		if e.Allowed && cell[ToolPerpLEExh] == 0 {
			res.MissedAllowed = append(res.MissedAllowed, e.Test.Name)
		}
		res.Counts[e.Test.Name] = cell
	}

	fmt.Fprintf(w, "Figure 9: target outcome occurrences, %d iterations\n", n)
	fmt.Fprintf(w, "(forbidden targets marked X; all tools must report 0 for them)\n\n")
	tb := stats.NewTable(append([]string{"test", ""}, toolNames()...)...)
	for i, name := range res.Tests {
		mark := ""
		if !res.Allowed[i] {
			mark = "X"
		}
		row := []interface{}{name, mark}
		for _, tool := range Tools {
			row = append(row, res.Counts[name][tool])
		}
		tb.AddRow(row...)
	}
	fmt.Fprint(w, tb.String())
	if cap2, cap3 := opts.exhaustiveCap(2, n), opts.exhaustiveCap(3, n); cap2 < n || cap3 < n {
		fmt.Fprintf(w, "\nnote: perple-exh examined the first %d (TL<=2) / %d (TL=3) of %d iterations\n"+
			"(its frame space is N^TL; run with -exhcap2=-1 -exhcap3=-1 for the uncapped paper setup)\n",
			cap2, cap3, n)
	}
	fmt.Fprintf(w, "\nfalse positives (forbidden targets observed): %d\n", res.FalsePositives)
	if len(res.MissedAllowed) == 0 {
		fmt.Fprintf(w, "PerpLE exposed the target of every TSO-allowed test\n")
	} else {
		fmt.Fprintf(w, "PerpLE missed allowed targets: %v\n", res.MissedAllowed)
	}
	return res, nil
}

func toolNames() []string {
	names := make([]string, len(Tools))
	for i, t := range Tools {
		names[i] = t.String()
	}
	return names
}
