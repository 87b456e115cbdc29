package experiments

import (
	"context"
	"fmt"
	"io"

	"perple/internal/axiom"
	"perple/internal/core"
	"perple/internal/harness"
	"perple/internal/litmus"
	"perple/internal/memmodel"
	"perple/internal/stats"
)

// Fig13Tests are the tests Figure 13 compares.
var Fig13Tests = []string{"sb", "lb", "podwr001"}

// Fig13Row is one (test, outcome) row: occurrences per tool.
type Fig13Row struct {
	Test    string
	Outcome litmus.Outcome
	// TSOAllowed marks whether the model allows this outcome (lb's 1,1 is
	// the Figure's forbidden example).
	TSOAllowed bool
	Counts     map[Tool]int64
}

// Fig13Result holds the outcome-variety comparison.
type Fig13Result struct {
	N    int
	Rows []*Fig13Row
	// Variety[test][tool] counts distinct outcomes each tool observed.
	Variety map[string]map[Tool]int
}

// Fig13 regenerates Figure 13: occurrences of every outcome of sb, lb and
// podwr001 over 1k iterations, PerpLE-heuristic vs litmus7 modes. All
// outcomes of each test are the outcomes of interest.
func Fig13(w io.Writer, opts Options) (*Fig13Result, error) {
	n := opts.n(1000)
	res := &Fig13Result{N: n, Variety: map[string]map[Tool]int{}}
	tools := append([]Tool{ToolPerpLEHeur}, Litmus7Tools...)

	// Every run's counts are copied out (the perpetual buffers counted)
	// before the next run reuses ws.
	var ws harness.Workspace
	for _, name := range Fig13Tests {
		test, err := litmus.SuiteTest(name)
		if err != nil {
			return nil, err
		}
		outcomes := test.AllOutcomes()
		rows := make([]*Fig13Row, len(outcomes))
		for i, o := range outcomes {
			rows[i] = &Fig13Row{Test: name, Outcome: o, Counts: map[Tool]int64{}}
		}
		// Which outcomes does TSO allow? (annotation only)
		allowed, err := axiom.AllowedOutcomes(test, memmodel.TSO)
		if err != nil {
			return nil, fmt.Errorf("fig13: %s: %w", name, err)
		}
		allowedSet := map[string]bool{}
		for _, o := range allowed {
			allowedSet[o.Key()] = true
		}
		for i, o := range outcomes {
			rows[i].TSOAllowed = allowedSet[o.Key()]
		}

		// litmus7 in every mode.
		for _, tool := range Litmus7Tools {
			mode, _ := tool.Mode()
			lr, err := ws.RunLitmus7(context.Background(), test, n, mode, outcomes, opts.cfg(), harness.Litmus7Options{})
			if err != nil {
				return nil, fmt.Errorf("fig13: %s/%v: %w", name, tool, err)
			}
			for i := range rows {
				rows[i].Counts[tool] = lr.OutcomeCounts[i]
			}
		}

		// PerpLE heuristic, one single-outcome counter per outcome on the
		// same run data: the paper's Figure 13 caption — "PerpLE heuristic
		// samples 1k frames per outcome" — counts each outcome
		// independently rather than through Algorithm 2's first-match
		// chain, which would starve later outcomes.
		pt, err := core.Convert(test)
		if err != nil {
			return nil, err
		}
		pos, err := core.ConvertAllOutcomes(pt)
		if err != nil {
			return nil, err
		}
		anyCounter := core.NewCounter(pt, nil)
		pr, err := ws.RunPerpLE(context.Background(), pt, anyCounter, n,
			harness.PerpLEOptions{KeepBufs: true}, opts.cfg())
		if err != nil {
			return nil, err
		}
		for i, po := range pos {
			single := core.NewCounter(pt, []*core.PerpetualOutcome{po})
			cr, err := single.CountHeuristic(pr.Bufs)
			if err != nil {
				return nil, err
			}
			rows[i].Counts[ToolPerpLEHeur] = cr.Counts[0]
		}

		variety := map[Tool]int{}
		for _, tool := range tools {
			for _, r := range rows {
				if r.Counts[tool] > 0 {
					variety[tool]++
				}
			}
		}
		res.Variety[name] = variety
		res.Rows = append(res.Rows, rows...)
	}

	fmt.Fprintf(w, "Figure 13: outcome variety for sb, lb, podwr001, %d iterations\n", n)
	fmt.Fprintf(w, "(occurrences of each outcome; PerpLE-heuristic samples %d frames per outcome)\n\n", n)
	header := []string{"test", "outcome", "tso"}
	for _, tool := range tools {
		header = append(header, tool.String())
	}
	tb := stats.NewTable(header...)
	for _, r := range res.Rows {
		mark := "ok"
		if !r.TSOAllowed {
			mark = "forbid"
		}
		row := []interface{}{r.Test, outcomeBits(r.Outcome), mark}
		for _, tool := range tools {
			row = append(row, r.Counts[tool])
		}
		tb.AddRow(row...)
	}
	fmt.Fprint(w, tb.String())

	fmt.Fprintf(w, "\ndistinct outcomes observed (variety; higher is better):\n")
	vt := stats.NewTable(append([]string{"test"}, toolNamesOf(tools)...)...)
	for _, name := range Fig13Tests {
		row := []interface{}{name}
		for _, tool := range tools {
			row = append(row, res.Variety[name][tool])
		}
		vt.AddRow(row...)
	}
	fmt.Fprint(w, vt.String())
	return res, nil
}

// outcomeBits renders an outcome as its condition values, e.g. "00" for
// sb's target, matching the paper's figure labels.
func outcomeBits(o litmus.Outcome) string {
	s := ""
	for _, c := range o.Conds {
		s += fmt.Sprintf("%d", c.Value)
	}
	return s
}

func toolNamesOf(tools []Tool) []string {
	names := make([]string, len(tools))
	for i, t := range tools {
		names[i] = t.String()
	}
	return names
}
