// Command perple-diy is a diy-style cycle-based litmus test generator: it
// synthesizes a litmus test from a relaxation-cycle specification,
// classifies its target under SC, x86-TSO and PSO with the axiomatic
// checker (refusing, with exit status 1, cycles beyond its exact-
// enumeration cutoff), and can run it under
// both harnesses or convert it to its perpetual counterpart — the full
// generate → convert → run pipeline the paper's Section VIII describes.
//
// Usage:
//
//	perple-diy -cycle "PodWR Fre PodWR Fre"          # sb
//	perple-diy -cycle "PodWW Rfe PodRR Fre" -run 10000
//	perple-diy -cycle "Rfe PodRR Fre Rfe PodRR Fre" -name my-iriw -o out/
//	perple-diy -edges                                 # list edge kinds
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"perple/internal/axiom"
	"perple/internal/core"
	"perple/internal/harness"
	"perple/internal/litmus"
	"perple/internal/memmodel"
	"perple/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perple-diy: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	cycle := flag.String("cycle", "", `relaxation cycle, e.g. "PodWR Fre PodWR Fre"`)
	name := flag.String("name", "generated", "test name")
	runN := flag.Int("run", 0, "also run the test for N iterations (PerpLE heuristic + litmus7 timebase)")
	outDir := flag.String("o", "", "also write the Converter's artifacts to this directory")
	seed := flag.Int64("seed", 1, "simulator seed for -run")
	listEdges := flag.Bool("edges", false, "list the supported cycle edges and exit")
	flag.Parse()

	if *listEdges {
		fmt.Println("external edges (move to a new thread, stay on one location):")
		fmt.Println("  Rfe    cross-thread read-from")
		fmt.Println("  Fre    cross-thread from-read")
		fmt.Println("  Wse    cross-thread write-serialization (adds a final-state pin)")
		fmt.Println("program-order edges (stay on the thread, change location):")
		fmt.Println("  PodWR  store;load   — relaxed by TSO and PSO")
		fmt.Println("  PodWW  store;store  — relaxed by PSO")
		fmt.Println("  PodRR  load;load    — never relaxed here")
		fmt.Println("  PodRW  load;store   — never relaxed here")
		fmt.Println("  FencedWR/RR/RW/WW   — the same with MFENCE, never relaxed")
		return nil
	}
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
	fmt.Println(litmus.Format(test))

	for _, m := range memmodel.Models {
		allowed, err := axiom.Allowed(test, test.Target, m)
		if err != nil {
			return err
		}
		fmt.Printf("target under %-3v: %v\n", m, verdict(allowed))
	}

	convertible := !test.Target.HasMemConds()
	var pt *core.PerpetualTest
	if convertible {
		if pt, err = core.Convert(test); err != nil {
			return err
		}
		fmt.Printf("perpetual conversion: ok (T_L = %d)\n", pt.TL())
	} else {
		fmt.Println("perpetual conversion: not convertible (final-state conditions; run under litmus7)")
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
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		for _, fname := range core.SortedFileNames(files) {
			path := filepath.Join(*outDir, fname)
			if err := os.WriteFile(path, []byte(files[fname]), 0o644); err != nil {
				return err
			}
			fmt.Println("wrote", path)
		}
	}

	if *runN > 0 {
		cfg := sim.DefaultConfig().WithSeed(*seed)
		lres, err := harness.RunLitmus7(context.Background(), test, *runN, sim.ModeTimebase, nil, cfg, harness.Litmus7Options{})
		if err != nil {
			return err
		}
		fmt.Printf("\n%d iterations on the simulated TSO machine:\n", *runN)
		fmt.Printf("  litmus7 timebase: %d target occurrences in %d ticks\n", lres.TargetCount, lres.Ticks)
		if convertible {
			counter, err := core.NewTargetCounter(pt)
			if err != nil {
				return err
			}
			pres, err := harness.RunPerpLE(context.Background(), pt, counter, *runN, harness.PerpLEOptions{Heuristic: true}, cfg)
			if err != nil {
				return err
			}
			fmt.Printf("  PerpLE heuristic: %d target occurrences in %d ticks\n",
				pres.Heuristic.Counts[0], pres.TotalTicksHeuristic())
		}
	}
	return nil
}

func verdict(allowed bool) string {
	if allowed {
		return "allowed"
	}
	return "forbidden"
}
