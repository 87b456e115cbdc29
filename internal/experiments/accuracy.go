package experiments

import (
	"fmt"
	"io"

	"perple/internal/core"
	"perple/internal/harness"
	"perple/internal/litmus"
	"perple/internal/stats"
)

// AccuracyRow is one test's heuristic-vs-exhaustive comparison on the
// same run data.
type AccuracyRow struct {
	Test       string
	Exhaustive int64
	Heuristic  int64
	// Agree is the Section VII-D criterion: the heuristic found the
	// target iff the exhaustive counter did (not necessarily the same
	// number of times).
	Agree bool
}

// AccuracyResult reproduces the Section VII-D heuristic-accuracy check.
type AccuracyResult struct {
	N         int
	Rows      []AccuracyRow
	Disagrees int
}

// HeuristicAccuracy runs every suite test once and applies both counters
// to the same in-memory results, checking the paper's accuracy criterion.
func HeuristicAccuracy(w io.Writer, opts Options) (*AccuracyResult, error) {
	n := opts.n(4000)
	res := &AccuracyResult{N: n}
	for _, e := range litmus.Suite() {
		pt, err := core.Convert(e.Test)
		if err != nil {
			return nil, err
		}
		counter, err := core.NewTargetCounter(pt)
		if err != nil {
			return nil, err
		}
		cap := opts.exhaustiveCap(pt.TL(), n)
		run, err := harness.RunPerpLE(pt, counter, n, harness.PerpLEOptions{
			Exhaustive: true, Heuristic: true, ExhaustiveCap: cap,
		}, opts.cfg())
		if err != nil {
			return nil, err
		}
		// Compare on the same window: re-run the heuristic over the
		// exhaustive counter's (possibly capped) view would change its
		// result; instead the agreement criterion uses found/not-found,
		// which the cap cannot flip from found to not-found for the
		// heuristic side.
		row := AccuracyRow{
			Test:       e.Test.Name,
			Exhaustive: run.Exhaustive.Counts[0],
			Heuristic:  run.Heuristic.Counts[0],
		}
		row.Agree = (row.Exhaustive > 0) == (row.Heuristic > 0)
		if !row.Agree {
			res.Disagrees++
		}
		res.Rows = append(res.Rows, row)
	}

	fmt.Fprintf(w, "Section VII-D: heuristic outcome counter accuracy, %d iterations\n", n)
	fmt.Fprintf(w, "(criterion: heuristic finds the target iff the exhaustive counter does)\n\n")
	tb := stats.NewTable("test", "exhaustive", "heuristic", "agree")
	for _, r := range res.Rows {
		tb.AddRow(r.Test, r.Exhaustive, r.Heuristic, r.Agree)
	}
	fmt.Fprint(w, tb.String())
	fmt.Fprintf(w, "\ndisagreements: %d of %d tests\n", res.Disagrees, len(res.Rows))
	return res, nil
}
