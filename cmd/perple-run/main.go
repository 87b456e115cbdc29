// Command perple-run executes one litmus test on the simulated x86-TSO
// machine under a chosen tool: PerpLE with the exhaustive or heuristic
// outcome counter, or the litmus7-equivalent runner in any of its five
// synchronization modes.
//
// Usage:
//
//	perple-run -test sb                               # PerpLE heuristic, 10k iterations
//	perple-run -test sb -tool perple-exh -n 2000
//	perple-run -test iriw -tool litmus7-timebase -n 100000
//	perple-run -file my.litmus -tool litmus7-user
//	perple-run -test sb -outcomes all                 # count the whole outcome space
//	perple-run -test sb -skew                         # also print the skew histogram
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"perple/internal/core"
	"perple/internal/harness"
	"perple/internal/litmus"
	"perple/internal/memmodel"
	"perple/internal/sim"
	"perple/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perple-run: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	testName := flag.String("test", "", "suite test name")
	file := flag.String("file", "", "litmus7-style test file")
	tool := flag.String("tool", "perple-heur", "perple-heur, perple-exh, or litmus7-{user,userfence,pthread,timebase,none}")
	n := flag.Int("n", 10000, "iterations")
	seed := flag.Int64("seed", 1, "simulator seed")
	outcomes := flag.String("outcomes", "target", "outcomes of interest: target or all")
	skew := flag.Bool("skew", false, "print the thread-skew histogram (PerpLE tools only)")
	exhCap := flag.Int("exhcap", 0, "iteration cap for the exhaustive counter (0 = uncapped)")
	model := flag.String("model", "TSO", "simulated machine's memory system: TSO or PSO (fault injection)")
	trace := flag.Int("trace", 0, "record and print the last N machine events (stores, drains, loads, fences)")
	preset := flag.String("preset", "default", "machine preset (see internal/sim Presets)")
	flag.Parse()

	test, err := loadTest(*testName, *file)
	if err != nil {
		return err
	}
	cfg, err := sim.Preset(*preset)
	if err != nil {
		return err
	}
	cfg = cfg.WithSeed(*seed)
	switch strings.ToUpper(*model) {
	case "TSO":
	case "PSO":
		cfg.Relaxation = memmodel.PSO
	default:
		return fmt.Errorf("unknown -model %q (want TSO or PSO)", *model)
	}
	cfg.TraceSize = *trace

	var ooi []litmus.Outcome
	switch *outcomes {
	case "target":
		ooi = []litmus.Outcome{test.Target}
	case "all":
		ooi = test.AllOutcomes()
	default:
		return fmt.Errorf("unknown -outcomes %q (want target or all)", *outcomes)
	}

	if strings.HasPrefix(*tool, "litmus7-") {
		mode, err := sim.ParseMode(strings.TrimPrefix(*tool, "litmus7-"))
		if err != nil {
			return err
		}
		res, err := harness.RunLitmus7(context.Background(), test, *n, mode, ooi, cfg, harness.Litmus7Options{})
		if err != nil {
			return err
		}
		fmt.Printf("litmus7 %s mode, %d iterations:\n\n", mode, *n)
		fmt.Print(harness.FormatLitmus7Report(res))
		if *trace > 0 {
			fmt.Printf("\nmachine trace (last %d events):\n%s", *trace, res.Trace.String())
		}
		if *outcomes == "all" {
			fmt.Println("\noutcomes of interest:")
			tb := stats.NewTable("outcome", "occurrences", "rate/Mtick")
			for i, o := range ooi {
				tb.AddRow(o.String(), res.OutcomeCounts[i], stats.Rate(res.OutcomeCounts[i], res.Ticks)*1e6)
			}
			fmt.Print(tb.String())
		}
		return nil
	}

	if *tool != "perple-heur" && *tool != "perple-exh" {
		return fmt.Errorf("unknown tool %q", *tool)
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
	opts := harness.PerpLEOptions{KeepBufs: *skew}
	if *tool == "perple-exh" {
		opts.Exhaustive = true
		opts.ExhaustiveCap = *exhCap
	} else {
		opts.Heuristic = true
	}
	res, err := harness.RunPerpLE(context.Background(), pt, counter, *n, opts, cfg)
	if err != nil {
		return err
	}

	cr := res.Heuristic
	total, wall := res.TotalTicksHeuristic(), res.WallExec+res.WallHeur
	if *tool == "perple-exh" {
		cr = res.Exhaustive
		total, wall = res.TotalTicksExhaustive(), res.WallExec+res.WallExh
		if res.ExhaustiveN < *n {
			fmt.Printf("note: exhaustive counter examined the first %d of %d iterations\n", res.ExhaustiveN, *n)
		}
	}
	fmt.Printf("test %s, PerpLE (%s), %d iterations, T_L=%d\n", test.Name, *tool, *n, pt.TL())
	fmt.Printf("simulated runtime: %d ticks (execution %d + counting %d); host %v\n",
		total, res.ExecTicks, total-res.ExecTicks, wall.Round(10e3))
	fmt.Printf("frames examined: %d\n\n", cr.Frames)
	tb := stats.NewTable("perpetual outcome of interest", "occurrences", "rate/Mtick")
	for i, po := range pos {
		label := po.Orig.String()
		if po.Unsatisfiable {
			label += " (unsatisfiable)"
		}
		tb.AddRow(label, cr.Counts[i], stats.Rate(cr.Counts[i], total)*1e6)
	}
	fmt.Print(tb.String())

	if *trace > 0 {
		fmt.Printf("\nmachine trace (last %d events):\n%s", *trace, res.Trace.String())
	}

	if *skew {
		samples := harness.MeasureSkew(pt, res.Bufs)
		vals := harness.SkewValues(samples, -1, -1)
		if len(vals) == 0 {
			fmt.Println("\nno skew samples (no cross-thread reads decoded)")
			return nil
		}
		min, max := vals[0], vals[0]
		for _, v := range vals {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		width := (max - min) / 30
		if width < 1 {
			width = 1
		}
		h, err := stats.NewHistogram(min, max, width)
		if err != nil {
			return err
		}
		h.AddAll(vals)
		fmt.Printf("\nthread skew (%d samples, range [%d, %d]):\n%s", len(vals), min, max, h.Render(50))
	}
	return nil
}

func loadTest(name, file string) (*litmus.Test, error) {
	switch {
	case name != "" && file != "":
		return nil, fmt.Errorf("use either -test or -file, not both")
	case name != "":
		return litmus.SuiteTest(name)
	case file != "":
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return litmus.Parse(string(src))
	default:
		return nil, fmt.Errorf("no input: pass -test <name> or -file <path>")
	}
}
