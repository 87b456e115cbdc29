// Model explorer: use the axiomatic memory-model checker to compare what
// sequential consistency and x86-TSO allow, across the whole perpetual
// litmus suite and for a hand-built test — the workflow an architect uses
// to decide whether an observed outcome indicates a bug.
package main

import (
	"context"
	"fmt"
	"log"

	"perple"
)

func main() {
	// 1. For every suite test: how many outcomes exist, how many each
	// model allows, and whether the target is TSO-only (the interesting
	// kind) or forbidden everywhere.
	fmt.Println("Suite outcome-space analysis (SC vs x86-TSO):")
	fmt.Printf("%-14s %8s %8s %8s  %s\n", "test", "space", "SC", "TSO", "target class")
	for _, e := range perple.Suite() {
		t := e.Test
		space := len(t.AllOutcomes())
		sc := len(must(perple.AllowedOutcomes(t, perple.SC)))
		tso := len(must(perple.AllowedOutcomes(t, perple.TSO)))
		class := classify(t)
		fmt.Printf("%-14s %8d %8d %8d  %s\n", t.Name, space, sc, tso, class)
	}

	// 2. A hand-built test through the same pipeline: message passing
	// with a fence only on the writer side. Is the mp pattern still
	// forbidden? (Yes: TSO preserves load-load order regardless.)
	test := &perple.Test{
		Name: "mp-writer-fence",
		Doc:  "message passing, fence between the writes only",
		Threads: []perple.Thread{
			{Instrs: []perple.Instr{
				perple.Store("data", 1),
				perple.Fence(),
				perple.Store("flag", 1),
			}},
			{Instrs: []perple.Instr{
				perple.Load(0, "flag"),
				perple.Load(1, "data"),
			}},
		},
		Target: perple.Outcome{Conds: []perple.Cond{
			{Thread: 1, Reg: 0, Value: 1}, // saw the flag...
			{Thread: 1, Reg: 1, Value: 0}, // ...but not the data
		}},
	}
	if err := test.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhand-built test %q:\n%s\n", test.Name, perple.FormatLitmus(test))
	fmt.Printf("target %v: SC %v, TSO %v\n", test.Target,
		must(perple.Allowed(test, test.Target, perple.SC)),
		must(perple.Allowed(test, test.Target, perple.TSO)))

	// 3. Empirical confirmation: run it perpetually; the counters must
	// report zero, because the simulated machine implements TSO.
	pt, err := perple.Convert(test)
	if err != nil {
		log.Fatal(err)
	}
	counter, err := perple.NewTargetCounter(pt)
	if err != nil {
		log.Fatal(err)
	}
	res, err := perple.RunPerpLE(context.Background(), pt, counter, 20000,
		perple.PerpLEOptions{Heuristic: true}, perple.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nperpetual run, 20000 iterations: %d target occurrences (expected 0)\n",
		res.Heuristic.Counts[0])
}

// must unwraps a checker answer; every test here fits the checker's
// exact-enumeration cutoff, so an error is a bug.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

func classify(t *perple.Test) string {
	sc := must(perple.Allowed(t, t.Target, perple.SC))
	tso := must(perple.Allowed(t, t.Target, perple.TSO))
	switch {
	case tso && !sc:
		return "TSO-only (demonstrates store buffering)"
	case tso && sc:
		return "allowed everywhere"
	default:
		return "forbidden (a sighting means a bug)"
	}
}
