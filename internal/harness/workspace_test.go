package harness

import (
	"context"
	"reflect"
	"testing"

	"perple/internal/core"
	"perple/internal/litmus"
	"perple/internal/memmodel"
	"perple/internal/sim"
)

// TestWorkspaceLitmus7MatchesFresh runs one Workspace through litmus7
// runs that switch tests, extra outcomes, worker counts, trace
// verification and models, and requires each result to equal the free
// function's (a fresh workspace), host-time fields excluded.
func TestWorkspaceLitmus7MatchesFresh(t *testing.T) {
	sb, iriw, mp := mustSuite(t, "sb"), mustSuite(t, "iriw"), mustSuite(t, "mp")
	steps := []struct {
		test     *litmus.Test
		outcomes []litmus.Outcome
		opts     Litmus7Options
		pso      bool
	}{
		{sb, nil, Litmus7Options{TraceVerify: TraceVerify{Every: 3}}, false},
		{sb, nil, Litmus7Options{}, false},
		{sb, nil, Litmus7Options{Workers: 3, TraceVerify: TraceVerify{Every: 2}}, true},
		{iriw, nil, Litmus7Options{Workers: 3}, false},
		{iriw, iriw.AllOutcomes(), Litmus7Options{}, false},
		{iriw, nil, Litmus7Options{Workers: 2, TraceVerify: TraceVerify{Every: 1}}, true},
		{mp, mp.AllOutcomes()[:2], Litmus7Options{Workers: 2}, false},
		{mp, nil, Litmus7Options{}, false},
		{sb, nil, Litmus7Options{Workers: 3}, false},
	}
	var ws Workspace
	for i, s := range steps {
		cfg := sim.DefaultConfig().WithSeed(int64(10 + i))
		if s.pso {
			cfg.Relaxation = memmodel.PSO
		}
		mode := sim.Modes[i%len(sim.Modes)]
		got, err := ws.RunLitmus7(context.Background(), s.test, 1200, mode, s.outcomes, cfg, s.opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunLitmus7(context.Background(), s.test, 1200, mode, s.outcomes, cfg, s.opts)
		if err != nil {
			t.Fatal(err)
		}
		g, w := *got, *want
		g.Wall, w.Wall, g.Trace, w.Trace, g.TraceVerifyNs, w.TraceVerifyNs = 0, 0, nil, nil, 0, 0
		if len(g.TraceReports) == 0 && len(w.TraceReports) == 0 {
			g.TraceReports, w.TraceReports = nil, nil
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("step %d (%s): workspace run differs from a fresh one\nworkspace: %+v\nfresh:     %+v", i, s.test.Name, g, w)
		}
	}
}

// TestWorkspacePerpLEMatchesFresh is the PerpLE counterpart: one
// Workspace across tests, counters, worker counts, counting modes,
// exhaustive caps and kept buffers, against fresh runs.
func TestWorkspacePerpLEMatchesFresh(t *testing.T) {
	type step struct {
		name string
		opts PerpLEOptions
	}
	steps := []step{
		{"sb", PerpLEOptions{Exhaustive: true, Heuristic: true}},
		{"sb", PerpLEOptions{Exhaustive: true, ExhaustiveCap: 200}},
		{"iriw", PerpLEOptions{Heuristic: true, Workers: 3}},
		{"iriw", PerpLEOptions{Exhaustive: true, ExhaustiveCap: 60, Workers: 2}},
		{"safe022", PerpLEOptions{Exhaustive: true, KeepBufs: true}},
		{"mp", PerpLEOptions{Heuristic: true, Exhaustive: true, Workers: 3}},
		{"sb", PerpLEOptions{Heuristic: true, KeepBufs: true}},
	}
	var ws Workspace
	counters := map[string]*core.Counter{}
	for i, s := range steps {
		pt, err := core.Convert(mustSuite(t, s.name))
		if err != nil {
			t.Fatal(err)
		}
		// Consecutive steps of a test share its counter, as a campaign
		// executor's do; a switch hands the workspace a new one.
		if i == 0 || steps[i-1].name != s.name {
			if counters[s.name], err = core.NewTargetCounter(pt); err != nil {
				t.Fatal(err)
			}
		}
		fresh, err := core.NewTargetCounter(pt)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.DefaultConfig().WithSeed(int64(20 + i))
		got, err := ws.RunPerpLE(context.Background(), pt, counters[s.name], 900, s.opts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunPerpLE(context.Background(), pt, fresh, 900, s.opts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, w := *got, *want
		g.WallExec, g.WallExh, g.WallHeur = 0, 0, 0
		w.WallExec, w.WallExh, w.WallHeur = 0, 0, 0
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("step %d (%s %+v): workspace run differs from a fresh one\nworkspace: %+v\nfresh:     %+v", i, s.name, s.opts, g, w)
		}
	}
}
