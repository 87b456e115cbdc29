// Quickstart: run the store-buffering litmus test the PerpLE way and the
// litmus7 way, and compare how often and how fast each exposes the target
// outcome (the weak behaviour reg0=0 && reg1=0 that only a TSO machine
// with store buffers can produce).
package main

import (
	"fmt"
	"log"

	"perple"
)

func main() {
	const iterations = 10000

	// The sb test from the built-in Table II suite.
	test, err := perple.SuiteTest("sb")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("litmus test:")
	fmt.Println(perple.FormatLitmus(test))
	fmt.Printf("target outcome: %v\n", test.Target)
	for _, m := range []perple.Model{perple.SC, perple.TSO} {
		allowed, err := perple.Allowed(test, test.Target, m)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  allowed under %-4s %v\n", m.String()+":", allowed)
	}
	fmt.Println()

	cfg := perple.DefaultConfig()

	// PerpLE: convert to a perpetual test, run synchronization-free, and
	// count target occurrences with the linear heuristic counter.
	pt, err := perple.Convert(test)
	if err != nil {
		log.Fatal(err)
	}
	counter, err := perple.NewTargetCounter(pt)
	if err != nil {
		log.Fatal(err)
	}
	pres, err := perple.RunPerpLE(pt, counter, iterations,
		perple.PerpLEOptions{Heuristic: true}, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// litmus7 baseline: per-iteration polling barrier (the default user
	// mode).
	lres, err := perple.RunLitmus7(test, iterations, perple.ModeUser, nil, cfg)
	if err != nil {
		log.Fatal(err)
	}

	perpleTicks := pres.TotalTicksHeuristic()
	fmt.Printf("%d iterations of sb:\n\n", iterations)
	fmt.Printf("  PerpLE (heuristic counter): %6d target occurrences in %8d simulated ticks\n",
		pres.Heuristic.Counts[0], perpleTicks)
	fmt.Printf("  litmus7 (user mode):        %6d target occurrences in %8d simulated ticks\n",
		lres.TargetCount, lres.Ticks)

	speedup := float64(lres.Ticks) / float64(perpleTicks)
	perpleRate := float64(pres.Heuristic.Counts[0]) / float64(perpleTicks)
	litmusRate := float64(lres.TargetCount) / float64(lres.Ticks)
	fmt.Printf("\n  runtime speedup:                %8.2fx\n", speedup)
	if litmusRate > 0 {
		fmt.Printf("  detection-rate improvement:     %8.0fx\n", perpleRate/litmusRate)
	}
}
