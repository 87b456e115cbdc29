// Campaign-level witness-trace verification: the spec knob parses and
// validates, verification never changes the canonical result document
// (the satellite fix this PR pins), counters fold into Metrics, and a
// PSO machine's violations surface through the server's status and
// metrics endpoints.
package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseTraceVerify(t *testing.T) {
	cases := []struct {
		in   string
		want int
		ok   bool
	}{
		{"", 0, true},
		{"off", 0, true},
		{"all", 1, true},
		{"1", 1, true},
		{"8", 8, true},
		{"0", 0, false},
		{"-3", 0, false},
		{"sometimes", 0, false},
	}
	for _, c := range cases {
		got, err := ParseTraceVerify(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseTraceVerify(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseTraceVerify(%q) accepted", c.in)
		}
	}
}

func TestSpecTraceVerifyValidate(t *testing.T) {
	spec := Spec{TraceVerify: "never"}
	if err := spec.Validate(); err == nil {
		t.Fatal("bad trace_verify value accepted")
	}
	spec = Spec{}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	// Unlike Axiom, TraceVerify must NOT be default-filled: verification
	// is explicit opt-in and "" must survive Validate as off.
	if spec.TraceVerify != "" || spec.TraceVerifyEvery() != 0 {
		t.Fatalf("Validate default-filled TraceVerify to %q", spec.TraceVerify)
	}
}

// TestCampaignTraceVerifyByteIdentical is the satellite fix: enabling
// trace verification must leave the campaign's canonical result document
// byte-identical, with the verification tallies surfacing only through
// Metrics. The spec mixes litmus7 (verified) and PerpLE (silently
// skipped) tools so both runJob paths are pinned.
func TestCampaignTraceVerifyByteIdentical(t *testing.T) {
	base := Spec{
		Tests:      []string{"mp", "sb"},
		Tools:      []string{"litmus7-user", "perple-heur"},
		Iterations: 600,
		ShardSize:  150,
		Seed:       5,
		Workers:    2,
	}
	run := func(traceVerify string) ([]byte, *Metrics) {
		t.Helper()
		spec := base
		spec.TraceVerify = traceVerify
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		camp, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		var m Metrics
		res, err := camp.Run(context.Background(), Options{Metrics: &m})
		if err != nil {
			t.Fatal(err)
		}
		data, err := res.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return data, &m
	}

	off, offM := run("off")
	on, onM := run("all")
	if !bytes.Equal(off, on) {
		t.Fatalf("trace verification perturbed the canonical document:\noff:\n%s\non:\n%s", off, on)
	}
	if offM.TracesVerified.Load() != 0 {
		t.Fatalf("verification off but %d traces verified", offM.TracesVerified.Load())
	}
	// Every iteration of every litmus7 job is verified at stride "all";
	// the PerpLE jobs contribute nothing (no per-iteration witness).
	if got := onM.TracesVerified.Load(); got != 2*600 {
		t.Fatalf("TracesVerified = %d, want %d", got, 2*600)
	}
	if got := onM.TraceViolations.Load(); got != 0 {
		t.Fatalf("TSO machine produced %d trace violations", got)
	}
}

// TestCampaignTraceVerifySampling pins the stride: a stride-k campaign
// verifies ~1/k of the iterations each shard runs.
func TestCampaignTraceVerifySampling(t *testing.T) {
	spec := Spec{
		Tests:       []string{"sb"},
		Tools:       []string{"litmus7-user"},
		Iterations:  1000,
		Seed:        9,
		TraceVerify: "10",
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if _, err := camp.Run(context.Background(), Options{Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	if got := m.TracesVerified.Load(); got != 100 {
		t.Fatalf("TracesVerified = %d, want 100 (stride 10 over 1000 iterations)", got)
	}
}

// TestServerTraceVerifyPSO drives the operator path end to end: a
// campaign over the PSO fault-injection preset with verification on must
// finish with trace_violations counted in the run's metrics, rendered
// cycle reports on the status endpoint, and the perple_trace_* families
// in the Prometheus exposition.
func TestServerTraceVerifyPSO(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := Spec{
		Tests:       []string{"mp"},
		Tools:       []string{"litmus7-timebase"},
		Presets:     []string{"pso"},
		Iterations:  8000,
		ShardSize:   4000,
		Seed:        3,
		TraceVerify: "all",
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, data)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit response %q: %v", data, err)
	}

	if state := soakWaitDone(t, ts, sub.ID, 60*time.Second); state != StateDone {
		t.Fatalf("campaign ended %q", state)
	}
	st := soakStatus(t, ts, sub.ID)
	metrics := st["metrics"].(map[string]any)
	if got := metrics["traces_verified"].(float64); got != 8000 {
		t.Fatalf("traces_verified = %v, want 8000", got)
	}
	if got := metrics["trace_violations"].(float64); got == 0 {
		t.Fatal("PSO campaign produced no trace violations under TSO verification")
	}
	reports, ok := st["trace_reports"].([]any)
	if !ok || len(reports) == 0 {
		t.Fatalf("status carries no trace reports: %v", st["trace_reports"])
	}
	if rep := reports[0].(string); !strings.Contains(rep, "trace violation") || !strings.Contains(rep, "rf:") {
		t.Fatalf("report not rendered:\n%s", rep)
	}

	req, err := http.NewRequest("GET", ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	mresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, family := range []string{
		"perple_traces_verified_total", "perple_trace_violations_total", "perple_trace_verify_ns_total",
		"perple_allocs_total", "perple_alloc_bytes_total",
	} {
		if !strings.Contains(string(prom), family) {
			t.Fatalf("Prometheus exposition missing %s:\n%s", family, prom)
		}
	}
	if strings.Contains(string(prom), "perple_traces_verified_total 0\n") {
		t.Fatal("perple_traces_verified_total stayed zero")
	}
}
