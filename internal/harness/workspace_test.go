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
// runs that switch tests, extra outcomes, trace verification strides
// and models, and requires each result to equal the free function's (a
// fresh workspace), host-time fields excluded. The last run checks a
// PSO machine against TSO on the warmed workspace: its reports fill the
// run's own MaxReports, past the default cap.
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
		{sb, nil, Litmus7Options{TraceVerify: TraceVerify{Every: 2}}, true},
		{iriw, nil, Litmus7Options{}, false},
		{iriw, iriw.AllOutcomes(), Litmus7Options{}, false},
		{iriw, nil, Litmus7Options{TraceVerify: TraceVerify{Every: 1}}, true},
		{mp, mp.AllOutcomes()[:2], Litmus7Options{}, false},
		{mp, nil, Litmus7Options{}, false},
		{sb, nil, Litmus7Options{}, false},
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

	pso, err := sim.Preset("pso")
	if err != nil {
		t.Fatal(err)
	}
	tv := Litmus7Options{TraceVerify: TraceVerify{Every: 1, MaxReports: 1000}}
	safe028 := mustSuite(t, "safe028")
	got, err := ws.RunLitmus7(context.Background(), safe028, 901, sim.ModeTimebase, nil, pso.WithSeed(13), tv)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunLitmus7(context.Background(), safe028, 901, sim.ModeTimebase, nil, pso.WithSeed(13), tv)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := comparableJSON(t, got), comparableJSON(t, want); g != w {
		t.Fatalf("PSO-under-TSO run on a warmed workspace differs from a fresh one:\n got %s\nwant %s", g, w)
	}
	if n := len(got.TraceReports); n <= DefaultTraceReports || int64(n) != min(got.TraceViolations, 1000) {
		t.Fatalf("%d reports for %d violations, want min(violations, 1000) > %d", n, got.TraceViolations, DefaultTraceReports)
	}
}

// TestWorkspacePerpLEMatchesFresh is the PerpLE counterpart: one
// Workspace across tests, counters, counting modes, exhaustive caps and
// kept buffers, against fresh runs. Each run counts on the caller's
// counter, and a capped exhaustive count examines cap^TL frames.
func TestWorkspacePerpLEMatchesFresh(t *testing.T) {
	type step struct {
		name string
		opts PerpLEOptions
	}
	steps := []step{
		{"sb", PerpLEOptions{Exhaustive: true, Heuristic: true}},
		{"sb", PerpLEOptions{Exhaustive: true, ExhaustiveCap: 200}},
		{"iriw", PerpLEOptions{Heuristic: true}},
		{"iriw", PerpLEOptions{Exhaustive: true, ExhaustiveCap: 60}},
		{"safe022", PerpLEOptions{Exhaustive: true, KeepBufs: true}},
		{"mp", PerpLEOptions{Heuristic: true, Exhaustive: true}},
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
		if ws.counter != counters[s.name] {
			t.Fatalf("step %d: workspace counts with %p, want the caller's counter %p", i, ws.counter, counters[s.name])
		}
		if (got.Bufs != nil) != s.opts.KeepBufs {
			t.Fatalf("step %d: KeepBufs %v but Bufs present = %v", i, s.opts.KeepBufs, got.Bufs != nil)
		}
		if c := s.opts.ExhaustiveCap; c > 0 {
			frames := int64(1)
			for range pt.TL() {
				frames *= int64(c)
			}
			if got.ExhaustiveN != c || got.Exhaustive.Frames != frames {
				t.Fatalf("step %d: capped count examined %d iterations, %d frames; want %d, %d",
					i, got.ExhaustiveN, got.Exhaustive.Frames, c, frames)
			}
		}
	}
}
