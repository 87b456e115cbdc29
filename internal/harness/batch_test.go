package harness

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"perple/internal/core"
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
	c.Wall = 0
	c.Trace = nil
	data, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestHistogramMatchesOutcomeKeyRendering(t *testing.T) {
	// The interned histogram must reproduce the OutcomeKey string format
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
		want[OutcomeKey(regs)]++
	}
	if !reflect.DeepEqual(res.Histogram, want) {
		t.Fatalf("interned histogram differs from OutcomeKey recomputation:\n got %v\nwant %v", res.Histogram, want)
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

func TestLitmus7BatchOneWorkerIdenticalToSerial(t *testing.T) {
	test := mustSuite(t, "sb")
	cfg := sim.DefaultConfig().WithSeed(31)
	serial, err := RunLitmus7(context.Background(), test, 1000, sim.ModeUser, []litmus.Outcome{test.Target}, cfg, Litmus7Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := RunLitmus7(context.Background(), test, 1000, sim.ModeUser, []litmus.Outcome{test.Target}, cfg, Litmus7Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := comparableJSON(t, batch), comparableJSON(t, serial); got != want {
		t.Fatalf("one-worker batch not byte-identical to serial:\n got %s\nwant %s", got, want)
	}
}

func TestLitmus7BatchEqualsMergedDerivedSerialRuns(t *testing.T) {
	test := mustSuite(t, "mp")
	cfg := sim.DefaultConfig().WithSeed(13)
	const n, workers = 901, 3
	batch, err := RunLitmus7(context.Background(), test, n, sim.ModeUser, []litmus.Outcome{test.Target}, cfg, Litmus7Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var merged *Litmus7Result
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		r, err := RunLitmus7(context.Background(), test, hi-lo, sim.ModeUser, []litmus.Outcome{test.Target},
			cfg.WithSeed(sim.WorkerSeed(cfg.Seed, w)), Litmus7Options{})
		if err != nil {
			t.Fatal(err)
		}
		if merged == nil {
			merged = r
		} else if err := merged.Merge(r); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := comparableJSON(t, batch), comparableJSON(t, merged); got != want {
		t.Fatalf("batch differs from merged derived serial runs:\n got %s\nwant %s", got, want)
	}
}

func TestPerpLEBatchEqualsMergedDerivedSerialRuns(t *testing.T) {
	test := mustSuite(t, "sb")
	pt, err := core.Convert(test)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := core.NewTargetCounter(pt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig().WithSeed(19)
	opts := PerpLEOptions{Heuristic: true, Exhaustive: true, ExhaustiveCap: 200}
	const n, workers = 700, 3
	batched := opts
	batched.Workers = workers
	batch, err := RunPerpLE(context.Background(), pt, counter, n, batched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var merged *PerpLEResult
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		r, err := RunPerpLE(context.Background(), pt, counter.Clone(), hi-lo, opts, cfg.WithSeed(sim.WorkerSeed(cfg.Seed, w)))
		if err != nil {
			t.Fatal(err)
		}
		if merged == nil {
			merged = r
		} else if err := merged.Merge(r); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(batch.Heuristic, merged.Heuristic) ||
		!reflect.DeepEqual(batch.Exhaustive, merged.Exhaustive) ||
		batch.N != merged.N || batch.ExecTicks != merged.ExecTicks ||
		batch.ExhCountTicks != merged.ExhCountTicks || batch.HeurCountTicks != merged.HeurCountTicks {
		t.Fatalf("PerpLE batch differs from merged derived serial runs:\n got %+v\nwant %+v", batch, merged)
	}
}

func TestPerpLEBatchRejectsKeepBufs(t *testing.T) {
	test := mustSuite(t, "sb")
	pt, err := core.Convert(test)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := core.NewTargetCounter(pt)
	if err != nil {
		t.Fatal(err)
	}
	opts := PerpLEOptions{Heuristic: true, KeepBufs: true, Workers: 2}
	if _, err := RunPerpLE(context.Background(), pt, counter, 100, opts, sim.DefaultConfig()); err == nil {
		t.Fatal("expected KeepBufs + workers>1 to be rejected")
	}
	// One worker is the serial path, where KeepBufs is fine.
	opts.Workers = 1
	res, err := RunPerpLE(context.Background(), pt, counter, 100, opts, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Bufs == nil {
		t.Fatal("one-worker batch dropped Bufs")
	}
}

// TestPerpLECountWorkersInvariant: fanning the counters out leaves
// every tally unchanged, and a capped exhaustive count examines cap^TL
// frames over the first cap iterations at every fan-out.
func TestPerpLECountWorkersInvariant(t *testing.T) {
	for _, name := range []string{"mp", "sb"} {
		pt, err := core.Convert(mustSuite(t, name))
		if err != nil {
			t.Fatal(err)
		}
		counter, err := core.NewTargetCounter(pt)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.DefaultConfig().WithSeed(29)
		base := PerpLEOptions{Heuristic: true, Exhaustive: true, ExhaustiveCap: 150}
		serial, err := RunPerpLE(context.Background(), pt, counter.Clone(), 600, base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		par := base
		par.CountWorkers = 4
		fanned, err := RunPerpLE(context.Background(), pt, counter.Clone(), 600, par, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial.Heuristic, fanned.Heuristic) || !reflect.DeepEqual(serial.Exhaustive, fanned.Exhaustive) {
			t.Fatalf("%s: CountWorkers changed counter results:\n serial %+v / %+v\n fanned %+v / %+v",
				name, serial.Heuristic, serial.Exhaustive, fanned.Heuristic, fanned.Exhaustive)
		}
		want := int64(1)
		for range pt.TL() {
			want *= int64(base.ExhaustiveCap)
		}
		for _, r := range []*PerpLEResult{serial, fanned} {
			if r.ExhaustiveN != base.ExhaustiveCap || r.Exhaustive.Frames != want {
				t.Fatalf("%s: capped count examined %d iterations, %d frames; want %d, %d",
					name, r.ExhaustiveN, r.Exhaustive.Frames, base.ExhaustiveCap, want)
			}
		}
	}
}
