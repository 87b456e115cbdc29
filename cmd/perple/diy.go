package main

import (
	"context"
	"fmt"
	"io"

	"perple/internal/axiom"
	"perple/internal/core"
	"perple/internal/harness"
	"perple/internal/litmus"
	"perple/internal/memmodel"
	"perple/internal/sim"
)

// diyCmd is a diy-style cycle-based litmus test generator: it
// synthesizes a litmus test from a relaxation-cycle specification,
// classifies its target under SC, x86-TSO and PSO with the axiomatic
// checker (refusing, with exit status 1, cycles beyond its exact-
// enumeration cutoff), and can run it under both harnesses or convert it
// to its perpetual counterpart — the full generate → convert → run
// pipeline the paper's Section VIII describes.
//
//	perple diy -cycle "PodWR Fre PodWR Fre"          # sb
//	perple diy -cycle "PodWW Rfe PodRR Fre" -run 10000
//	perple diy -cycle "Rfe PodRR Fre Rfe PodRR Fre" -name my-iriw -o out/
//	perple diy -edges                                 # list edge kinds
func diyCmd(args []string, stdout, stderr io.Writer) int {
	fl := newFlags("diy", stderr)
	cycle := fl.String("cycle", "", `relaxation cycle, e.g. "PodWR Fre PodWR Fre"`)
	name := fl.String("name", "generated", "test name")
	runN := fl.Int("run", 0, "also run the test for N iterations (PerpLE heuristic + litmus7 timebase)")
	outDir := fl.String("o", "", "also write the Converter's artifacts to this directory")
	seed := fl.Int64("seed", 1, "simulator seed for -run")
	listEdges := fl.Bool("edges", false, "list the supported cycle edges and exit")
	if fl.Parse(args) != nil {
		return 2
	}
	if *listEdges {
		fmt.Fprint(stdout, edgeHelp)
		return 0
	}
	return report(fl, func() error {
		if *cycle == "" {
			return fmt.Errorf("pass -cycle (or -edges for help)")
		}
		edges, err := litmus.ParseCycle(*cycle)
		if err != nil {
			return err
		}
		test, err := litmus.FromCycle(*name, edges...)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, litmus.Format(test))

		for _, m := range memmodel.Models {
			allowed, err := axiom.Allowed(test, test.Target, m)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "target under %-3v: %v\n", m, verdict(allowed))
		}

		convertible := !test.Target.HasMemConds()
		var pt *core.PerpetualTest
		if convertible {
			if pt, err = core.Convert(test); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "perpetual conversion: ok (T_L = %d)\n", pt.TL())
		} else {
			fmt.Fprintln(stdout, "perpetual conversion: not convertible (final-state conditions; run under litmus7)")
		}

		if *outDir != "" {
			if !convertible {
				return fmt.Errorf("-o requires a convertible test")
			}
			po, err := core.ConvertOutcome(pt, test.Target)
			if err != nil {
				return err
			}
			files := core.GeneratedFiles(pt, []*core.PerpetualOutcome{po})
			if err := writeFiles(stdout, *outDir, files, "wrote "); err != nil {
				return err
			}
		}
		if *runN > 0 {
			return runGenerated(stdout, test, pt, *runN, *seed)
		}
		return nil
	})
}

const edgeHelp = `external edges (move to a new thread, stay on one location):
  Rfe    cross-thread read-from
  Fre    cross-thread from-read
  Wse    cross-thread write-serialization (adds a final-state pin)
program-order edges (stay on the thread, change location):
  PodWR  store;load   — relaxed by TSO and PSO
  PodWW  store;store  — relaxed by PSO
  PodRR  load;load    — never relaxed here
  PodRW  load;store   — never relaxed here
  FencedWR/RR/RW/WW   — the same with MFENCE, never relaxed
`

// runGenerated runs a generated test under litmus7 timebase and, when
// it converted (pt non-nil), under PerpLE's heuristic counter.
func runGenerated(w io.Writer, test *litmus.Test, pt *core.PerpetualTest, n int, seed int64) error {
	cfg := sim.DefaultConfig().WithSeed(seed)
	lres, err := harness.RunLitmus7(context.Background(), test, n, sim.ModeTimebase, nil, cfg, harness.Litmus7Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%d iterations on the simulated TSO machine:\n", n)
	fmt.Fprintf(w, "  litmus7 timebase: %d target occurrences in %d ticks\n", lres.TargetCount, lres.Ticks)
	if pt == nil {
		return nil
	}
	counter, err := core.NewTargetCounter(pt)
	if err != nil {
		return err
	}
	pres, err := harness.RunPerpLE(context.Background(), pt, counter, n, harness.PerpLEOptions{Heuristic: true}, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  PerpLE heuristic: %d target occurrences in %d ticks\n",
		pres.Heuristic.Counts[0], pres.TotalTicksHeuristic())
	return nil
}

func verdict(allowed bool) string {
	if allowed {
		return "allowed"
	}
	return "forbidden"
}
