// Custom test: the full Converter workflow on a user-supplied litmus7-
// format test — parse it, classify its target, convert it to a perpetual
// test, inspect the generated artifacts (perpetual assembly, counter
// sources, parameters), and run it under both harnesses.
package main

import (
	"context"
	"fmt"
	"log"

	"perple"
)

// A litmus7-style source for a 3-thread write-to-read causality test with
// an extra stressing store, written the way diy/litmus7 users write them.
const source = `
X86 wrc+stress
"write-read causality with third-party store traffic"
{ x=0; y=0; z=0; }
 P0          | P1          | P2          ;
 MOV [x],$1  | MOV EAX,[x] | MOV EAX,[y] ;
 MOV [z],$1  | MOV [y],$1  | MOV EBX,[x] ;
exists (1:EAX=1 /\ 2:EAX=1 /\ 2:EBX=0)
`

func main() {
	test, err := perple.ParseLitmus(source)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed %q: %d threads, %d load-performing\n", test.Name, test.T(), test.TL())
	fmt.Printf("target %v\n", test.Target)
	sc, err := perple.Allowed(test, test.Target, perple.SC)
	if err != nil {
		log.Fatal(err)
	}
	tso, err := perple.Allowed(test, test.Target, perple.TSO)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  SC allows:  %v\n", sc)
	fmt.Printf("  TSO allows: %v (wrc is forbidden: stores are transitively visible)\n\n", tso)

	// Convert and show the Converter's artifacts, like the paper's tool
	// emits per-thread assembly and counter files.
	pt, err := perple.Convert(test)
	if err != nil {
		log.Fatal(err)
	}
	target, err := perple.ConvertOutcome(pt, test.Target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("perpetual outcome condition:\n  %v\n\n", target)

	files := perple.GeneratedFiles(pt, []*perple.PerpetualOutcome{target})
	fmt.Printf("generated artifacts (%d files):\n", len(files))
	for name := range files {
		fmt.Printf("  %s (%d bytes)\n", name, len(files[name]))
	}
	fmt.Printf("\n%s\n", files["wrc_stress_t1.s"])

	// Run under both harnesses: nobody may observe the forbidden target.
	cfg := perple.DefaultConfig()
	const n = 20000

	counter := perple.NewCounter(pt, []*perple.PerpetualOutcome{target})
	pres, err := perple.RunPerpLE(context.Background(), pt, counter, n, perple.PerpLEOptions{Heuristic: true}, cfg)
	if err != nil {
		log.Fatal(err)
	}
	lres, err := perple.RunLitmus7(context.Background(), test, n, perple.ModeTimebase, nil, cfg, perple.Litmus7Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d iterations:\n", n)
	fmt.Printf("  PerpLE heuristic:  %d target occurrences (expected 0)\n", pres.Heuristic.Counts[0])
	fmt.Printf("  litmus7 timebase:  %d target occurrences (expected 0)\n", lres.TargetCount)

	// The observable (allowed) outcomes still show up in litmus7's
	// histogram — the machine is weak, just not broken.
	fmt.Printf("  litmus7 observed %d distinct outcomes across the run\n", len(lres.Histogram))
}
