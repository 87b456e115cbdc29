package perple

import (
	"context"
	"slices"
	"strings"
	"testing"

	"perple/internal/core"
	"perple/internal/harness"
	"perple/internal/litmus"
	"perple/internal/sim"
)

// TestPublicAPIPipeline walks the full public surface the README
// advertises: suite access, parsing/printing, model classification,
// conversion, explanation, code generation, both harnesses, skew
// measurement, value decoding, and the fence/cycle/relabel tools.
func TestPublicAPIPipeline(t *testing.T) {
	if len(Suite()) != 34 || len(litmus.AllowedSuite()) != 12 || len(litmus.ForbiddenSuite()) != 22 {
		t.Fatal("suite accessors wrong")
	}
	if len(litmus.SuiteNames()) != 34 {
		t.Fatal("SuiteNames wrong")
	}
	if len(litmus.NonConvertible()) == 0 {
		t.Fatal("NonConvertible empty")
	}

	test, err := SuiteTest("sb")
	if err != nil {
		t.Fatal(err)
	}

	// Round-trip through the litmus7 text format.
	reparsed, err := ParseLitmus(FormatLitmus(test))
	if err != nil {
		t.Fatal(err)
	}
	if !reparsed.Target.Equal(test.Target) {
		t.Error("format/parse round trip lost the target")
	}

	// Model classification.
	if mustAllowed(t, test, SC) {
		t.Error("sb target should be SC-forbidden")
	}
	if !mustAllowed(t, test, TSO) {
		t.Error("sb target should be TSO-allowed")
	}
	if !mustAllowed(t, test, PSO) {
		t.Error("sb target should be PSO-allowed")
	}
	scOuts, err := AllowedOutcomes(test, SC)
	if err != nil {
		t.Fatal(err)
	}
	tsoOuts, err := AllowedOutcomes(test, TSO)
	if err != nil {
		t.Fatal(err)
	}
	if len(scOuts) != 3 || len(tsoOuts) != 4 {
		t.Error("outcome sets wrong")
	}

	// Conversion, explanation, codegen.
	pt, err := Convert(test)
	if err != nil {
		t.Fatal(err)
	}
	po, ex, err := Explain(pt, test.Target)
	if err != nil {
		t.Fatal(err)
	}
	if po.Unsatisfiable || !strings.Contains(ex.String(), "happens-before") {
		t.Error("explanation wrong")
	}
	pos, err := core.ConvertAllOutcomes(pt)
	if err != nil {
		t.Fatal(err)
	}
	files := GeneratedFiles(pt, pos)
	if _, ok := files["sb_count.go"]; !ok {
		t.Error("generated files missing counter source")
	}

	// Harnesses.
	cfg := DefaultConfig()
	counter, err := NewTargetCounter(pt)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := RunPerpLE(context.Background(), pt, counter, 1500,
		PerpLEOptions{Exhaustive: true, Heuristic: true, KeepBufs: true}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pres.Exhaustive.Counts[0] == 0 || pres.Heuristic.Counts[0] == 0 {
		t.Error("PerpLE found no sb targets")
	}
	if pres.Heuristic.Counts[0] > pres.Exhaustive.Counts[0] {
		t.Error("heuristic exceeded exhaustive")
	}
	all := NewCounter(pt, pos)
	if got, err := all.CountHeuristic(context.Background(), pres.Bufs); err != nil || !slices.ContainsFunc(got.Counts, func(c int64) bool { return c > 0 }) {
		t.Errorf("multi-outcome counter failed: %v %v", got, err)
	}

	lres, err := RunLitmus7(context.Background(), test, 1500, ModeTimebase, test.AllOutcomes(), cfg, Litmus7Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lres.TargetCount == 0 {
		t.Error("litmus7 timebase found no sb targets")
	}
	if !strings.Contains(harness.FormatLitmus7Report(lres), "Observation sb") {
		t.Error("report wrong")
	}

	// Skew + decoding.
	samples := MeasureSkew(pt, pres.Bufs)
	if len(samples) == 0 {
		t.Error("no skew samples")
	}
	if _, _, ok := DecodeValue(pt, "x", pres.Bufs.Bufs[1][0]); pres.Bufs.Bufs[1][0] > 0 && !ok {
		t.Error("decode failed")
	}

	// Transformations and generators.
	fenced := litmus.WithFences(test)
	if mustAllowed(t, fenced, TSO) {
		t.Error("fully fenced sb target should be TSO-forbidden")
	}
	relabeled, err := litmus.RelabelLocations(test, map[Loc]Loc{"x": "data"})
	if err != nil || relabeled.Locs()[0] != "data" {
		t.Errorf("relabel failed: %v", err)
	}
	cyc, err := FromCycle("api-sb", PodWR, Fre, PodWR, Fre)
	if err != nil {
		t.Fatal(err)
	}
	if !mustAllowed(t, cyc, TSO) || mustAllowed(t, cyc, SC) {
		t.Error("cycle classification wrong")
	}
	edges, err := litmus.ParseCycle("PodWW Rfe PodRR Fre")
	if err != nil || len(edges) != 4 {
		t.Fatal("ParseCycle failed")
	}

	// Presets.
	if _, err := sim.Preset("pso"); err != nil {
		t.Error(err)
	}
	if len(sim.Presets()) < 5 {
		t.Error("presets missing")
	}

	// Hand-built test via constructors.
	custom := &Test{
		Name: "api-custom",
		Threads: []Thread{
			{Instrs: []Instr{Store("a", 1), Fence(), Load(0, "b")}},
			{Instrs: []Instr{Store("b", 1), Fence(), Load(0, "a")}},
		},
		Target: Outcome{Conds: []Cond{{Thread: 0, Reg: 0, Value: 0}, {Thread: 1, Reg: 0, Value: 0}}},
	}
	if err := custom.Validate(); err != nil {
		t.Fatal(err)
	}
	if mustAllowed(t, custom, TSO) {
		t.Error("fenced sb should be TSO-forbidden")
	}
}

// mustAllowed classifies the test's target under m, failing the test if
// the checker refuses it.
func mustAllowed(t *testing.T, test *Test, m Model) bool {
	t.Helper()
	ok, err := Allowed(test, test.Target, m)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// TestPublicAPITrace exercises the trace plumbing through the facade.
func TestPublicAPITrace(t *testing.T) {
	test, err := SuiteTest("sb")
	if err != nil {
		t.Fatal(err)
	}
	pt, err := Convert(test)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := NewTargetCounter(pt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TraceSize = 256
	res, err := RunPerpLE(context.Background(), pt, counter, 20, PerpLEOptions{Heuristic: true}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Events()) == 0 {
		t.Error("no trace events through the facade")
	}
}
