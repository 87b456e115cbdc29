// Skew analysis: reproduce the Figure 12 measurement interactively. Run
// the perpetual sb test for 100k synchronization-free iterations, decode
// every loaded value back to the iteration that stored it (the arithmetic
// sequences make that possible), and plot the thread-skew distribution —
// the degree to which the two threads run ahead of or behind each other.
package main

import (
	"context"
	"fmt"
	"log"

	"perple"
)

func main() {
	const iterations = 100000

	test, err := perple.SuiteTest("sb")
	if err != nil {
		log.Fatal(err)
	}
	pt, err := perple.Convert(test)
	if err != nil {
		log.Fatal(err)
	}
	counter, err := perple.NewTargetCounter(pt)
	if err != nil {
		log.Fatal(err)
	}

	res, err := perple.RunPerpLE(context.Background(), pt, counter, iterations,
		perple.PerpLEOptions{Heuristic: true, KeepBufs: true}, perple.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Decode a few raw buffer entries to show the mechanism: thread 0's
	// n-th load of y returns k*m + a, identifying iteration m of thread 1.
	fmt.Println("decoding loaded values back to (storer, iteration):")
	for _, n := range []int{1000, 50000, 99000} {
		v := res.Bufs.Bufs[0][n]
		if store, m, ok := perple.DecodeValue(pt, "y", v); ok {
			fmt.Printf("  thread 0, iteration %6d read %8d => thread %d stored it at iteration %6d (skew %+d)\n",
				n, v, store.Ref.Thread, m, int64(n)-m)
		} else {
			fmt.Printf("  thread 0, iteration %6d read %8d => initial value, no skew sample\n", n, v)
		}
	}

	samples := perple.MeasureSkew(pt, res.Bufs)
	fmt.Printf("\n%d skew samples from %d iterations\n", len(samples), iterations)

	// Simple text histogram over coarse buckets.
	buckets := []int64{-1 << 62, -1000, -300, -100, -30, -10, 10, 30, 100, 300, 1000, 1 << 62}
	labels := []string{"< -1000", "-1000..-300", "-300..-100", "-100..-30", "-30..-10",
		"-10..10", "10..30", "30..100", "100..300", "300..1000", "> 1000"}
	counts := make([]int, len(labels))
	for _, s := range samples {
		for i := 0; i < len(labels); i++ {
			if s.Skew > buckets[i] && s.Skew <= buckets[i+1] {
				counts[i]++
				break
			}
		}
	}
	max := 1
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	fmt.Println("\nthread skew distribution (iterations apart):")
	for i, label := range labels {
		bar := counts[i] * 50 / max
		fmt.Printf("%12s | %-50s %d\n", label, stars(bar), counts[i])
	}
	fmt.Println("\nThe distribution is wide — threads drift far apart without per-iteration")
	fmt.Println("synchronization — yet densest near zero, exactly the Figure 12 shape.")
	fmt.Printf("PerpLE still counted %d target occurrences despite the drift.\n",
		res.Heuristic.Counts[0])
}

func stars(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '#'
	}
	return string(b)
}
