package harness

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"perple/internal/litmus"
	"perple/internal/sim"
)

func mustSuite(t *testing.T, name string) *litmus.Test {
	t.Helper()
	test, err := litmus.SuiteTest(name)
	if err != nil {
		t.Fatalf("SuiteTest(%s): %v", name, err)
	}
	return test
}

// comparableJSON renders a result with the host-time and trace fields
// zeroed, so byte comparison covers exactly the deterministic payload.
func comparableJSON(t *testing.T, res *Litmus7Result) string {
	t.Helper()
	c := *res
	c.Wall, c.TraceVerifyNs = 0, 0
	c.Trace = nil
	data, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestHistogramMatchesOutcomeKeyRendering(t *testing.T) {
	// The interned histogram must reproduce the outcomeKey string format
	// exactly: recompute the histogram from the raw register files and
	// compare maps.
	test := mustSuite(t, "mp")
	cfg := sim.DefaultConfig().WithSeed(17)
	const n = 2000
	res, err := RunLitmus7(context.Background(), test, n, sim.ModeUser, nil, cfg, Litmus7Options{})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sim.Compile(test)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := sim.NewRunner(ct).RunSynced(n, sim.ModeUser, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{}
	regs := make([][]int64, len(simRes.RegCounts))
	for iter := 0; iter < n; iter++ {
		for ti, rc := range simRes.RegCounts {
			regs[ti] = simRes.Regs[ti][iter*rc : (iter+1)*rc]
		}
		want[outcomeKey(regs)]++
	}
	if !reflect.DeepEqual(res.Histogram, want) {
		t.Fatalf("interned histogram differs from outcomeKey recomputation:\n got %v\nwant %v", res.Histogram, want)
	}
}

func TestLitmus7RunnerReuseMatchesFreshRun(t *testing.T) {
	test := mustSuite(t, "sb")
	ct, err := sim.Compile(test)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := NewLitmus7Runner(ct, []litmus.Outcome{test.Target})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig().WithSeed(23)
	first, err := lr.Run(800, sim.ModeUser, cfg)
	if err != nil {
		t.Fatal(err)
	}
	firstJSON := comparableJSON(t, first)
	// Dirty the reused state with a different run, then repeat.
	if _, err := lr.Run(333, sim.ModeTimebase, sim.DefaultConfig().WithSeed(9)); err != nil {
		t.Fatal(err)
	}
	again, err := lr.Run(800, sim.ModeUser, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := comparableJSON(t, again); got != firstJSON {
		t.Fatalf("reused Litmus7Runner diverged:\n got %s\nwant %s", got, firstJSON)
	}
	fresh, err := RunLitmus7(context.Background(), test, 800, sim.ModeUser, []litmus.Outcome{test.Target}, cfg, Litmus7Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := comparableJSON(t, fresh); got != firstJSON {
		t.Fatalf("fresh RunLitmus7 differs from runner:\n got %s\nwant %s", got, firstJSON)
	}
}

func TestLitmus7RunnerSteadyStateAllocs(t *testing.T) {
	test := mustSuite(t, "sb")
	ct, err := sim.Compile(test)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := NewLitmus7Runner(ct, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig().WithSeed(4)
	if _, err := lr.Run(300, sim.ModeUser, cfg); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := lr.Run(300, sim.ModeUser, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2 {
		t.Fatalf("steady-state litmus7 run allocates %.1f times, want ≤ 2", avg)
	}
}
