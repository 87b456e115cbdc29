package sim

import (
	"strings"
	"testing"

	"perple/internal/litmus"
)

func TestTracePerpetual(t *testing.T) {
	pt := mustPerp(t, "sb")
	cfg := DefaultConfig()
	cfg.TraceSize = 10000
	res, err := runPerpetual(pt, 50, cfg)
	if err != nil {
		t.Fatal(err)
	}
	events := res.Trace.Events()
	if len(events) == 0 {
		t.Fatal("no trace events")
	}
	var stores, drains, loads int
	for _, e := range events {
		switch e.Kind {
		case TraceStore:
			stores++
			if e.DrainAt < e.Time {
				t.Errorf("store drains before it is issued: %+v", e)
			}
			if e.Loc != "x" && e.Loc != "y" {
				t.Errorf("store to unexpected location %q", e.Loc)
			}
		case TraceDrain:
			drains++
		case TraceLoad:
			loads++
		}
	}
	// sb: 2 threads × 50 iterations, one store and one load each.
	if stores != 100 || loads != 100 {
		t.Errorf("stores=%d loads=%d, want 100 each", stores, loads)
	}
	// Every store eventually drains (settle at end of run).
	if drains != stores {
		t.Errorf("drains=%d, want %d", drains, stores)
	}
	out := res.Trace.String()
	for _, want := range []string{"store [x]", "load  [", "drain ["} {
		if !strings.Contains(out, want) {
			t.Errorf("trace rendering missing %q:\n%s", want, out[:min(len(out), 500)])
		}
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	pt := mustPerp(t, "sb")
	res, err := runPerpetual(pt, 10, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("trace should be nil when TraceSize is 0")
	}
	// The nil trace is safe to query.
	if res.Trace.Events() != nil || res.Trace.Dropped() != 0 {
		t.Error("nil trace should report nothing")
	}
}

func TestTraceRingWraps(t *testing.T) {
	pt := mustPerp(t, "sb")
	cfg := DefaultConfig()
	cfg.TraceSize = 16
	res, err := runPerpetual(pt, 100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	events := res.Trace.Events()
	if len(events) != 16 {
		t.Fatalf("ring holds %d events, want 16", len(events))
	}
	if res.Trace.Dropped() == 0 {
		t.Error("ring should have dropped events")
	}
	if !strings.Contains(res.Trace.String(), "earlier events dropped") {
		t.Error("rendering should mention dropped events")
	}
	// The kept tail must be the run's most recent events: the final
	// settle drains appear.
	last := events[len(events)-1]
	if last.Kind != TraceDrain {
		t.Errorf("last event is %v, want the settle drain", last.Kind)
	}
}

func TestTraceSynced(t *testing.T) {
	test, err := litmus.SuiteTest("amd5")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TraceSize = 4096
	res, err := runSynced(test, 20, ModeUser, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fences := 0
	for _, e := range res.Trace.Events() {
		if e.Kind == TraceFence {
			fences++
		}
	}
	// amd5 has one fence per thread per iteration.
	if fences != 40 {
		t.Errorf("fences=%d, want 40", fences)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
