package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"perple/internal/experiments"
)

// experimentsCmd regenerates the PerpLE paper's evaluation tables and
// figures (Section VII) on the simulated substrate. Each experiment
// prints a plain-text report to stdout; see EXPERIMENTS.md for the
// recorded paper-vs-measured comparison.
//
//	perple experiments [-exp all|table2|fig9|fig10|fig11|fig12|fig13|accuracy|overall|faultinject]
//	                   [-n N] [-seed S] [-quick] [-exhcap2 N] [-exhcap3 N]
func experimentsCmd(args []string, stdout, stderr io.Writer) int {
	fl := newFlags("experiments", stderr)
	exp := fl.String("exp", "all", "experiment to run: all, or one of "+strings.Join(experimentOrder, ", "))
	n := fl.Int("n", 0, "iteration count override (0 = per-experiment paper default)")
	seed := fl.Int64("seed", 1, "simulator seed")
	quick := fl.Bool("quick", false, "shrink sweeps for a fast smoke run")
	cap2 := fl.Int("exhcap2", 0, "exhaustive-counter iteration cap for TL<=2 tests (0 = default, -1 = uncapped)")
	cap3 := fl.Int("exhcap3", 0, "exhaustive-counter iteration cap for TL=3 tests (0 = default, -1 = uncapped)")
	if fl.Parse(args) != nil {
		return 2
	}
	if *n < 0 {
		return usageErr(fl, "-n must be ≥ 0")
	}
	names := experimentOrder
	if *exp != "all" {
		if _, ok := experimentRunners[*exp]; !ok {
			fmt.Fprintf(stderr, "%s: unknown experiment %q\n", fl.Name(), *exp)
			fl.Usage()
			return 2
		}
		names = []string{*exp}
	}

	opts := experiments.Options{
		N: *n, Seed: *seed, Quick: *quick,
		ExhaustiveCap2: *cap2, ExhaustiveCap3: *cap3,
	}
	for i, name := range names {
		if i > 0 {
			fmt.Fprintln(stdout, "\n"+strings.Repeat("=", 78)+"\n")
		}
		start := time.Now()
		if err := experimentRunners[name](stdout, opts); err != nil {
			fmt.Fprintf(stderr, "%s: %s: %v\n", fl.Name(), name, err)
			return 1
		}
		fmt.Fprintf(stdout, "\n[%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

var experimentOrder = []string{"table2", "fig9", "fig10", "fig11", "fig12", "fig13", "accuracy", "overall", "faultinject"}

var experimentRunners = map[string]func(io.Writer, experiments.Options) error{
	"table2":      wrap(experiments.TableII),
	"fig9":        wrap(experiments.Fig9),
	"fig10":       wrap(experiments.Fig10),
	"fig11":       wrap(experiments.Fig11),
	"fig12":       wrap(experiments.Fig12),
	"fig13":       wrap(experiments.Fig13),
	"accuracy":    wrap(experiments.HeuristicAccuracy),
	"overall":     wrap(experiments.Overall),
	"faultinject": wrap(experiments.FaultInjection),
}

// wrap adapts a typed experiment driver to the common runner signature.
func wrap[T any](fn func(io.Writer, experiments.Options) (T, error)) func(io.Writer, experiments.Options) error {
	return func(w io.Writer, opts experiments.Options) error {
		_, err := fn(w, opts)
		return err
	}
}
