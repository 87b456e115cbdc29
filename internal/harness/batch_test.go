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
	c.Wall, c.TraceVerifyNs = 0, 0
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

// TestLitmus7BatchEqualsMergedDerivedSerialRuns: a k-substream run on
// one reused Workspace — warmed by a run of another test — equals the
// merge of k fresh serial runs over the substream ranges with derived
// seeds. The cases cover k clamped to n, and a PSO machine verified
// against TSO, where every substream yields violation reports that
// must survive the next substream's reuse of the runner.
func TestLitmus7BatchEqualsMergedDerivedSerialRuns(t *testing.T) {
	sb := mustSuite(t, "sb")
	pso, err := sim.Preset("pso")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, test string
		mode       sim.Mode
		n, workers int
		cfg        sim.Config
		tv         TraceVerify
	}{
		{"mp", "mp", sim.ModeUser, 901, 3, sim.DefaultConfig().WithSeed(13), TraceVerify{}},
		{"clamped", "mp", sim.ModeUser, 2, 8, sim.DefaultConfig().WithSeed(13), TraceVerify{}},
		{"pso-vs-tso", "safe028", sim.ModeTimebase, 901, 3, pso.WithSeed(13), TraceVerify{Every: 1, MaxReports: 1000}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			test := mustSuite(t, tc.test)
			var ws Workspace
			if _, err := ws.RunLitmus7(ctx, sb, 500, sim.ModeUser, nil, tc.cfg.WithSeed(3), Litmus7Options{Workers: 2, TraceVerify: TraceVerify{Every: 2}}); err != nil {
				t.Fatal(err)
			}
			batch, err := ws.RunLitmus7(ctx, test, tc.n, tc.mode, nil, tc.cfg, Litmus7Options{Workers: tc.workers, TraceVerify: tc.tv})
			if err != nil {
				t.Fatal(err)
			}
			k := min(tc.workers, tc.n)
			var merged *Litmus7Result
			var reports []string
			for w := 0; w < k; w++ {
				lo, hi := tc.n*w/k, tc.n*(w+1)/k
				r, err := RunLitmus7(ctx, test, hi-lo, tc.mode, nil,
					tc.cfg.WithSeed(sim.WorkerSeed(tc.cfg.Seed, w)), Litmus7Options{TraceVerify: tc.tv})
				if err != nil {
					t.Fatal(err)
				}
				if tc.tv.Every > 0 && len(r.TraceReports) == 0 {
					t.Fatalf("substream %d produced no violation reports", w)
				}
				reports = append(reports, r.TraceReports...)
				if merged == nil {
					merged = r
				} else if err := merged.Merge(r); err != nil {
					t.Fatal(err)
				}
			}
			// Merge caps reports at DefaultTraceReports; a run keeps up
			// to its MaxReports, first substreams first.
			merged.TraceReports = reports[:min(len(reports), tc.tv.reports())]
			if got, want := comparableJSON(t, batch), comparableJSON(t, merged); got != want {
				t.Fatalf("batch differs from merged derived serial runs:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestPerpLEBatchEqualsMergedDerivedSerialRuns is the PerpLE
// counterpart: a k-substream run on one warmed Workspace equals the
// merge of k fresh serial runs, a capped exhaustive count examines
// cap^TL frames in each substream, and the workspace counts every
// substream on the caller's Counter and one PerpetualRunner.
func TestPerpLEBatchEqualsMergedDerivedSerialRuns(t *testing.T) {
	capped := PerpLEOptions{Heuristic: true, Exhaustive: true, ExhaustiveCap: 200}
	cases := []struct {
		name       string
		n, workers int
		opts       PerpLEOptions
	}{
		{"sb", 700, 3, capped},
		{"mp", 700, 3, capped},
		{"sb", 400, 4, PerpLEOptions{Exhaustive: true}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pt, err := core.Convert(mustSuite(t, tc.name))
			if err != nil {
				t.Fatal(err)
			}
			counter, err := core.NewTargetCounter(pt)
			if err != nil {
				t.Fatal(err)
			}
			var ws Workspace
			iriw, err := core.Convert(mustSuite(t, "iriw"))
			if err != nil {
				t.Fatal(err)
			}
			warm, err := core.NewTargetCounter(iriw)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ws.RunPerpLE(ctx, iriw, warm, 300, PerpLEOptions{Exhaustive: true, Heuristic: true, Workers: 2}, sim.DefaultConfig()); err != nil {
				t.Fatal(err)
			}
			cfg := sim.DefaultConfig().WithSeed(19)
			batched := tc.opts
			batched.Workers = tc.workers
			got, err := ws.RunPerpLE(ctx, pt, counter, tc.n, batched, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ws.perp == nil || ws.counter != counter {
				t.Fatalf("workspace counts with %p, want the caller's counter %p", ws.counter, counter)
			}
			var merged *PerpLEResult
			for w := 0; w < tc.workers; w++ {
				lo, hi := tc.n*w/tc.workers, tc.n*(w+1)/tc.workers
				fresh, err := core.NewTargetCounter(pt)
				if err != nil {
					t.Fatal(err)
				}
				r, err := RunPerpLE(ctx, pt, fresh, hi-lo, tc.opts, cfg.WithSeed(sim.WorkerSeed(cfg.Seed, w)))
				if err != nil {
					t.Fatal(err)
				}
				if merged == nil {
					merged = r
				} else if err := merged.Merge(r); err != nil {
					t.Fatal(err)
				}
			}
			g, m := *got, *merged
			g.WallExec, g.WallExh, g.WallHeur = 0, 0, 0
			m.WallExec, m.WallExh, m.WallHeur = 0, 0, 0
			if !reflect.DeepEqual(g, m) {
				t.Fatalf("PerpLE batch differs from merged derived serial runs:\n got %+v\nwant %+v", g, m)
			}
			if c := tc.opts.ExhaustiveCap; c > 0 {
				frames := int64(tc.workers)
				for range pt.TL() {
					frames *= int64(c)
				}
				if got.ExhaustiveN != tc.workers*c || got.Exhaustive.Frames != frames {
					t.Fatalf("capped count examined %d iterations, %d frames; want %d, %d",
						got.ExhaustiveN, got.Exhaustive.Frames, tc.workers*c, frames)
				}
			}
		})
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
