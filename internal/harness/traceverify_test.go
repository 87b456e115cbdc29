package harness

import (
	"context"
	"strings"
	"testing"

	"perple/internal/litmus"
	"perple/internal/sim"
)

// TestBatchVerifyDoesNotPerturbResults: a verified batch must produce
// bit-identical histograms and tallies to an unverified batch with the
// same arguments — verification only observes.
func TestBatchVerifyDoesNotPerturbResults(t *testing.T) {
	tc, err := litmus.SuiteTest("sb")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig().WithSeed(11)
	plain, err := RunLitmus7(context.Background(), tc, 2000, sim.ModeUser, nil, cfg, Litmus7Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	verified, err := RunLitmus7(context.Background(), tc, 2000, sim.ModeUser, nil, cfg, Litmus7Options{Workers: 3, TraceVerify: TraceVerify{Every: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if verified.TargetCount != plain.TargetCount || verified.Ticks != plain.Ticks {
		t.Fatalf("tallies perturbed: target %d vs %d, ticks %d vs %d",
			verified.TargetCount, plain.TargetCount, verified.Ticks, plain.Ticks)
	}
	if len(verified.Histogram) != len(plain.Histogram) {
		t.Fatalf("histogram size perturbed: %d vs %d", len(verified.Histogram), len(plain.Histogram))
	}
	for k, v := range plain.Histogram {
		if verified.Histogram[k] != v {
			t.Fatalf("histogram[%q] perturbed: %d vs %d", k, verified.Histogram[k], v)
		}
	}
	if verified.TracesVerified == 0 {
		t.Fatal("no traces verified")
	}
	if verified.TraceViolations != 0 {
		t.Fatalf("TSO machine produced %d trace violations:\n%s",
			verified.TraceViolations, strings.Join(verified.TraceReports, "\n"))
	}
	if plain.TracesVerified != 0 || plain.TraceReports != nil {
		t.Fatal("unverified batch carries verification data")
	}
}

// TestBatchVerifyDeterministic: equal arguments give equal tallies and
// reports regardless of goroutine scheduling.
func TestBatchVerifyDeterministic(t *testing.T) {
	tc, err := litmus.SuiteTest("mp")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sim.Preset("pso")
	if err != nil {
		t.Fatal(err)
	}
	tv := TraceVerify{Every: 1}
	a, err := RunLitmus7(context.Background(), tc, 6000, sim.ModeTimebase, nil, cfg, Litmus7Options{Workers: 4, TraceVerify: tv})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLitmus7(context.Background(), tc, 6000, sim.ModeTimebase, nil, cfg, Litmus7Options{Workers: 4, TraceVerify: tv})
	if err != nil {
		t.Fatal(err)
	}
	if a.TracesVerified != b.TracesVerified || a.TraceViolations != b.TraceViolations {
		t.Fatalf("tallies differ: %d/%d vs %d/%d",
			a.TracesVerified, a.TraceViolations, b.TracesVerified, b.TraceViolations)
	}
	if len(a.TraceReports) != len(b.TraceReports) {
		t.Fatalf("report counts differ: %d vs %d", len(a.TraceReports), len(b.TraceReports))
	}
	for i := range a.TraceReports {
		if a.TraceReports[i] != b.TraceReports[i] {
			t.Fatalf("report %d differs", i)
		}
	}
}

// TestBatchVerifyDetectsPSO: the fault-injection guarantee at the
// harness level — a PSO machine under TSO verification must surface
// violations with capped, rendered reports.
func TestBatchVerifyDetectsPSO(t *testing.T) {
	tc, err := litmus.SuiteTest("mp")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sim.Preset("pso")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLitmus7(context.Background(), tc, 8000, sim.ModeTimebase, nil, cfg, Litmus7Options{Workers: 2, TraceVerify: TraceVerify{Every: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceViolations == 0 {
		t.Fatal("PSO machine produced no trace violations under TSO verification")
	}
	if len(res.TraceReports) == 0 || len(res.TraceReports) > DefaultTraceReports {
		t.Fatalf("report cap broken: %d reports", len(res.TraceReports))
	}
	if !strings.Contains(res.TraceReports[0], "trace violation") {
		t.Fatalf("report not rendered:\n%s", res.TraceReports[0])
	}
	if res.TracesVerified != 8000 {
		t.Fatalf("TracesVerified = %d, want 8000", res.TracesVerified)
	}
}

// TestMergeFoldsTraceTallies: shard merge sums counts and caps reports.
func TestMergeFoldsTraceTallies(t *testing.T) {
	tc, err := litmus.SuiteTest("sb")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(viol int64, reps int) *Litmus7Result {
		r := &Litmus7Result{Test: tc, Mode: sim.ModeUser, Histogram: map[string]int64{},
			TracesVerified: 10, TraceViolations: viol, TraceVerifyNs: 5}
		for i := 0; i < reps; i++ {
			r.TraceReports = append(r.TraceReports, "report")
		}
		return r
	}
	a := mk(2, 2)
	b := mk(3, 3)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.TracesVerified != 20 || a.TraceViolations != 5 || a.TraceVerifyNs != 10 {
		t.Fatalf("merge tallies wrong: %d/%d/%d", a.TracesVerified, a.TraceViolations, a.TraceVerifyNs)
	}
	if len(a.TraceReports) != DefaultTraceReports {
		t.Fatalf("merged reports = %d, want cap %d", len(a.TraceReports), DefaultTraceReports)
	}
}

func TestSetTraceVerifyValidation(t *testing.T) {
	tc, err := litmus.SuiteTest("sb")
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sim.Compile(tc)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := NewLitmus7Runner(ct, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := lr.SetTraceVerify(TraceVerify{Every: -1}); err == nil {
		t.Fatal("negative stride accepted")
	}
	if err := lr.SetTraceVerify(TraceVerify{Every: 1, SC: true}); err != nil {
		t.Fatalf("SC verification rejected: %v", err)
	}
	if err := lr.SetTraceVerify(TraceVerify{}); err != nil {
		t.Fatalf("disable rejected: %v", err)
	}
}
