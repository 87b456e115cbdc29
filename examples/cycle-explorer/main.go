// Cycle explorer: generate litmus tests from relaxation cycles (the
// diy-style construction behind the paper's test corpus), classify each
// under SC / TSO / PSO, and watch how fences progressively forbid the
// weak behaviours — ending with a conversion narration straight out of
// the paper's Figure 6.
package main

import (
	"context"
	"fmt"
	"log"

	"perple"
)

func main() {
	// A family of store-buffering cycles, from fully relaxed to fully
	// fenced. Each PodWR edge is a place the hardware may defer a store
	// past a later load; each fence removes one such place.
	family := []struct {
		label string
		edges []perple.EdgeSpec
	}{
		{"sb (both sides relaxed)", []perple.EdgeSpec{perple.PodWR, perple.Fre, perple.PodWR, perple.Fre}},
		{"sb one fence", []perple.EdgeSpec{perple.FencedWR, perple.Fre, perple.PodWR, perple.Fre}},
		{"sb both fences (amd5)", []perple.EdgeSpec{perple.FencedWR, perple.Fre, perple.FencedWR, perple.Fre}},
		{"mp (W->W relaxed only under PSO)", []perple.EdgeSpec{perple.PodWW, perple.Rfe, perple.PodRR, perple.Fre}},
		{"mp with fenced writes", []perple.EdgeSpec{perple.FencedWW, perple.Rfe, perple.PodRR, perple.Fre}},
		{"iriw (atomicity, never allowed)", []perple.EdgeSpec{perple.Rfe, perple.PodRR, perple.Fre, perple.Rfe, perple.PodRR, perple.Fre}},
	}

	fmt.Printf("%-36s %-10s %-10s %-10s\n", "cycle", "SC", "TSO", "PSO")
	for _, f := range family {
		test, err := perple.FromCycle(f.label, f.edges...)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-36s %-10s %-10s %-10s\n", f.label,
			verdict(test, perple.SC), verdict(test, perple.TSO), verdict(test, perple.PSO))
	}

	// Deep-dive one cycle: generate, show the test, convert, and narrate
	// the outcome conversion the way Figure 6 of the paper does.
	test, err := perple.FromCycle("explored-sb", perple.PodWR, perple.Fre, perple.PodWR, perple.Fre)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngenerated test:\n%s\n", perple.FormatLitmus(test))

	pt, err := perple.Convert(test)
	if err != nil {
		log.Fatal(err)
	}
	_, ex, err := perple.Explain(pt, test.Target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("conversion narration (paper Figure 6/8):")
	fmt.Print(ex.String())

	// And confirm empirically on the simulated TSO machine.
	counter, err := perple.NewTargetCounter(pt)
	if err != nil {
		log.Fatal(err)
	}
	res, err := perple.RunPerpLE(context.Background(), pt, counter, 10000,
		perple.PerpLEOptions{Heuristic: true}, perple.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nperpetual run, 10000 iterations: %d target occurrences\n", res.Heuristic.Counts[0])
}

func verdict(test *perple.Test, m perple.Model) string {
	allowed, err := perple.Allowed(test, test.Target, m)
	if err != nil {
		log.Fatal(err)
	}
	if allowed {
		return "allowed"
	}
	return "forbidden"
}
