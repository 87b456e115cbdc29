package main

import (
	"context"
	"fmt"
	"io"
	"strings"

	"perple/internal/campaign"
	"perple/internal/core"
	"perple/internal/harness"
	"perple/internal/litmus"
	"perple/internal/sim"
	"perple/internal/stats"
)

// runCmd executes one litmus test on the simulated x86-TSO machine under
// a chosen tool: PerpLE with the exhaustive or heuristic outcome
// counter, or the litmus7-equivalent runner in any of its five
// synchronization modes.
//
//	perple run -test sb                               # PerpLE heuristic, 10k iterations
//	perple run -test sb -tool perple-exh -n 2000
//	perple run -test iriw -tool litmus7-timebase -n 100000
//	perple run -file my.litmus -tool litmus7-user
//	perple run -test mp -preset pso                   # the fault-injection machine
//	perple run -test sb -outcomes all                 # count the whole outcome space
//	perple run -test sb -skew                         # also print the skew histogram
func runCmd(args []string, stdout, stderr io.Writer) int {
	fl := newFlags("run", stderr)
	testName := fl.String("test", "", "suite test name")
	file := fl.String("file", "", "litmus7-style test file")
	tool := fl.String("tool", "perple-heur", "perple-heur, perple-exh, or litmus7-{user,userfence,pthread,timebase,none}")
	sf := addSimFlags(fl, 10000)
	outcomes := fl.String("outcomes", "target", "outcomes of interest: target or all")
	skew := fl.Bool("skew", false, "print the thread-skew histogram (PerpLE tools only)")
	exhCap := fl.Int("exhcap", -1, fmt.Sprintf("iteration cap for the exhaustive counter (0 = %d, -1 = uncapped)", campaign.DefaultExhCap))
	trace := fl.Int("trace", 0, "record and print the last N machine events (stores, drains, loads, fences)")
	if fl.Parse(args) != nil {
		return 2
	}
	if *trace < 0 {
		return usageErr(fl, "-trace must be ≥ 0")
	}
	return report(fl, func() error {
		test, err := loadTest(*testName, *file)
		if err != nil {
			return err
		}
		cfg, err := sf.config()
		if err != nil {
			return err
		}
		cfg.TraceSize = *trace
		return runTest(stdout, test, *tool, *sf.n, cfg, *outcomes, *skew, *exhCap)
	})
}

func runTest(w io.Writer, test *litmus.Test, tool string, n int, cfg sim.Config, outcomes string, skew bool, exhCap int) error {
	var ooi []litmus.Outcome
	switch outcomes {
	case "target":
		ooi = []litmus.Outcome{test.Target}
	case "all":
		ooi = test.AllOutcomes()
	default:
		return fmt.Errorf("unknown -outcomes %q (want target or all)", outcomes)
	}

	if strings.HasPrefix(tool, "litmus7-") {
		mode, err := sim.ParseMode(strings.TrimPrefix(tool, "litmus7-"))
		if err != nil {
			return err
		}
		res, err := harness.RunLitmus7(context.Background(), test, n, mode, ooi, cfg, harness.Litmus7Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "litmus7 %s mode, %d iterations:\n\n", mode, n)
		fmt.Fprint(w, harness.FormatLitmus7Report(res))
		if cfg.TraceSize > 0 {
			fmt.Fprintf(w, "\nmachine trace (last %d events):\n%s", cfg.TraceSize, res.Trace.String())
		}
		if outcomes == "all" {
			fmt.Fprintln(w, "\noutcomes of interest:")
			tb := stats.NewTable("outcome", "occurrences", "rate/Mtick")
			for i, o := range ooi {
				tb.AddRow(o.String(), res.OutcomeCounts[i], stats.Rate(res.OutcomeCounts[i], res.Ticks)*1e6)
			}
			fmt.Fprint(w, tb.String())
		}
		return nil
	}

	if tool != "perple-heur" && tool != "perple-exh" {
		return fmt.Errorf("unknown tool %q", tool)
	}
	pt, err := core.Convert(test)
	if err != nil {
		return err
	}
	pos := make([]*core.PerpetualOutcome, len(ooi))
	for i, o := range ooi {
		if pos[i], err = core.ConvertOutcome(pt, o); err != nil {
			return err
		}
	}
	counter := core.NewCounter(pt, pos)
	opts := harness.PerpLEOptions{KeepBufs: skew}
	if tool == "perple-exh" {
		// The campaign meaning of the cap: 0 is the default, negative
		// uncapped (the harness's 0).
		if exhCap == 0 {
			exhCap = campaign.DefaultExhCap
		}
		opts.Exhaustive = true
		opts.ExhaustiveCap = max(exhCap, 0)
	} else {
		opts.Heuristic = true
	}
	res, err := harness.RunPerpLE(context.Background(), pt, counter, n, opts, cfg)
	if err != nil {
		return err
	}

	cr := res.Heuristic
	total, wall := res.TotalTicksHeuristic(), res.WallExec+res.WallHeur
	if tool == "perple-exh" {
		cr = res.Exhaustive
		total, wall = res.TotalTicksExhaustive(), res.WallExec+res.WallExh
		if res.ExhaustiveN < n {
			fmt.Fprintf(w, "note: exhaustive counter examined the first %d of %d iterations\n", res.ExhaustiveN, n)
		}
	}
	fmt.Fprintf(w, "test %s, PerpLE (%s), %d iterations, T_L=%d\n", test.Name, tool, n, pt.TL())
	fmt.Fprintf(w, "simulated runtime: %d ticks (execution %d + counting %d); host %v\n",
		total, res.ExecTicks, total-res.ExecTicks, wall.Round(10e3))
	fmt.Fprintf(w, "frames examined: %d\n\n", cr.Frames)
	tb := stats.NewTable("perpetual outcome of interest", "occurrences", "rate/Mtick")
	for i, po := range pos {
		label := po.Orig.String()
		if po.Unsatisfiable {
			label += " (unsatisfiable)"
		}
		tb.AddRow(label, cr.Counts[i], stats.Rate(cr.Counts[i], total)*1e6)
	}
	fmt.Fprint(w, tb.String())

	if cfg.TraceSize > 0 {
		fmt.Fprintf(w, "\nmachine trace (last %d events):\n%s", cfg.TraceSize, res.Trace.String())
	}
	if skew {
		return printSkew(w, pt, res.Bufs)
	}
	return nil
}

// printSkew renders the thread-skew histogram of one PerpLE run.
func printSkew(w io.Writer, pt *core.PerpetualTest, bufs *core.BufSet) error {
	vals := harness.SkewValues(harness.MeasureSkew(pt, bufs), -1, -1)
	if len(vals) == 0 {
		fmt.Fprintln(w, "\nno skew samples (no cross-thread reads decoded)")
		return nil
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = min(lo, v), max(hi, v)
	}
	h, err := stats.NewHistogram(lo, hi, max((hi-lo)/30, 1))
	if err != nil {
		return err
	}
	h.AddAll(vals)
	fmt.Fprintf(w, "\nthread skew (%d samples, range [%d, %d]):\n%s", len(vals), lo, hi, h.Render(50))
	return nil
}
