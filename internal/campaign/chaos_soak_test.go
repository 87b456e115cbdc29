// Chaos soak: the fault-injected fleet campaign, driven by the
// injectors in chaos_test.go.
//
// The headline property: a k=4 loopback fleet whose HTTP transports
// drop, delay, duplicate, truncate, and 5xx-fail requests on a seeded
// schedule — while the server's checkpoint filesystem tears writes,
// flips bits, and fails renames — still merges results byte-identical
// to a fault-free serial run. The short soak runs in tier-1; -chaos.long
// extends the fleet rounds for CI's dedicated chaos job.
package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var chaosLong = flag.Bool("chaos.long", false, "run the full-length chaos soak (more fleet rounds)")

// soakInjectors is every injector the soak must observe firing at least
// once: the six HTTP faults plus the three checkpoint-filesystem ones.
var soakInjectors = []string{
	"drop_request", "drop_response", "delay", "duplicate", "truncate", "server_error",
	"torn_write", "corrupt", "rename_fail",
}

// soakSpec is small enough that a fleet round finishes in seconds yet
// sharded finely enough (48 jobs) that every protocol path sees many
// exchanges. MaxRetries is generous because injected lease losses (a
// duplicated or response-dropped lease call strands its grants until
// the TTL sweep) charge the retry budget without being job failures.
func soakSpec(t *testing.T) Spec {
	t.Helper()
	spec := Spec{
		Tests:      []string{"lb", "mp", "sb"},
		Tools:      []string{"litmus7-user"},
		Iterations: 400,
		ShardSize:  25,
		Seed:       11,
		Workers:    2,
		MaxRetries: 100,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return spec
}

// soakBaseline is the fault-free serial run: the reference bytes every
// chaos round must reproduce exactly.
func soakBaseline(t *testing.T, spec Spec) []byte {
	t.Helper()
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Run(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func soakSubmit(t *testing.T, ts *httptest.Server, spec Spec) string {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/campaigns?mode=dispatch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("dispatch submit = %d: %s", resp.StatusCode, data)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit response %q: %v", data, err)
	}
	return sub.ID
}

func soakStatus(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + "/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var st map[string]any
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("status body %q: %v", data, err)
	}
	return st
}

func soakWaitDone(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	state := ""
	for time.Now().Before(deadline) {
		state = soakStatus(t, ts, id)["state"].(string)
		if state != StateRunning {
			return state
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("campaign %s still %q after %v", id, state, timeout)
	return state
}

func soakCanonical(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/campaigns/" + id + "/results?format=canonical")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("canonical results = %d: %s", resp.StatusCode, data)
	}
	return data
}

// chaosRound runs one fault-injected fleet campaign and asserts its
// merged bytes equal the fault-free baseline. It returns the round's
// aggregated injector stats (all four workers' transports plus the
// server's checkpoint filesystem).
func chaosRound(t *testing.T, round int, spec Spec, want []byte) chaosStats {
	t.Helper()
	fsys := newChaosFS(chaosFSConfig{
		Seed:  int64(round*1000 + 7),
		Rates: chaosFSRates{TornWrite: 0.15, Corrupt: 0.15, RenameFail: 0.15},
	})
	srv := NewServer()
	srv.CheckpointDir = t.TempDir()
	srv.CheckpointFS = fsys
	// A floor of 1 saves at 1, 2, 4, … 32 terminal rows and at the close:
	// the most saves the doubling schedule makes of 48 jobs, each a
	// chance for the filesystem injectors to fire.
	srv.CheckpointEvery = 1
	srv.LeaseTTL = 400 * time.Millisecond
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := soakSubmit(t, ts, spec)

	const fleet = 4
	var wg sync.WaitGroup
	errs := make([]error, fleet)
	rts := make([]*chaosRoundTripper, fleet)
	for i := 0; i < fleet; i++ {
		rts[i] = newChaosRoundTripper(chaosConfig{
			Seed: int64(round*100 + i + 1),
			Rates: chaosRates{
				DropRequest: 0.08, DropResponse: 0.08, Delay: 0.08,
				Duplicate: 0.08, Truncate: 0.08, ServerError: 0.08,
			},
			DelayMin: time.Millisecond,
			DelayMax: 5 * time.Millisecond,
		}, nil)
		opts := WorkerOptions{
			BaseURL:          ts.URL,
			Campaign:         id,
			Name:             fmt.Sprintf("chaos-%d-%d", round, i),
			Parallel:         2,
			Client:           &http.Client{Transport: rts[i], Timeout: 30 * time.Second},
			BackoffBase:      5 * time.Millisecond,
			BreakerThreshold: 6,
			BreakerCooldown:  50 * time.Millisecond,
		}
		// A batch of Parallel jobs keeps the many small exchanges, and
		// the checkpoint writes behind them, that every injector needs
		// to get its chance to fire: at the default batch the 48-job
		// campaign takes only a few uploads.
		opts.leaseBatch = 2
		w := NewWorker(opts)
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			errs[i] = w.Run(context.Background())
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("round %d: worker %d failed under chaos: %v\n(injector caps guarantee every retry loop a clean exchange — this is a real robustness bug)", round, i, err)
		}
	}
	if state := soakWaitDone(t, ts, id, 60*time.Second); state != StateDone {
		t.Fatalf("round %d: campaign ended %q", round, state)
	}
	if got := soakCanonical(t, ts, id); !bytes.Equal(got, want) {
		t.Fatalf("round %d: chaos fleet diverged from fault-free serial run:\nserial:\n%s\nchaos:\n%s", round, want, got)
	}
	st := soakStatus(t, ts, id)
	if dl, ok := st["dead_letters"]; ok {
		t.Fatalf("round %d: chaos quarantined jobs despite the retry budget: %v", round, dl)
	}
	if spec.TraceVerifyEvery() > 0 {
		metrics := st["metrics"].(map[string]any)
		if got := metrics["traces_verified"].(float64); got == 0 {
			t.Fatalf("round %d: trace verification enabled but no traces verified: %v", round, metrics)
		}
		if got := metrics["trace_violations"].(float64); got != 0 {
			t.Fatalf("round %d: TSO machine produced trace violations: %v", round, st["trace_reports"])
		}
	}

	stats := chaosStats{}
	for _, rt := range rts {
		stats.Merge(rt.Stats())
	}
	stats.Merge(fsys.Stats())
	return stats
}

// TestChaosSoakFleetByteIdentical is the headline chaos property: fleet
// rounds under the full injector set keep producing the fault-free
// bytes, and across the rounds every one of the nine injectors fires at
// least once — so the pass is meaningful coverage, not quiet luck.
func TestChaosSoakFleetByteIdentical(t *testing.T) {
	spec := soakSpec(t)
	want := soakBaseline(t, spec)

	// The chaos rounds run with witness-trace verification ON while the
	// baseline ran with it off: the byte comparison below then also pins
	// the trace-verify observer property (verification must not perturb
	// the canonical document) under the full fault-injection load.
	spec.TraceVerify = "4"
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}

	// The doubling snapshot schedule makes about seven saves a round, so
	// the filesystem injectors get few chances per round: the short soak
	// needs two to four rounds to see every injector fire.
	maxRounds := 6
	if *chaosLong {
		maxRounds = 10
	}
	covered := func(s chaosStats) bool {
		for _, name := range soakInjectors {
			if s[name] == 0 {
				return false
			}
		}
		return true
	}
	total := chaosStats{}
	rounds := 0
	for round := 1; round <= maxRounds; round++ {
		total.Merge(chaosRound(t, round, spec, want))
		rounds = round
		// The short soak stops at full coverage; the long soak keeps
		// torturing for the whole budget.
		if !*chaosLong && covered(total) {
			break
		}
	}
	if !covered(total) {
		missing := []string{}
		for _, name := range soakInjectors {
			if total[name] == 0 {
				missing = append(missing, name)
			}
		}
		t.Fatalf("injectors %v never fired across %d rounds: %v", missing, rounds, total)
	}
	t.Logf("chaos soak: %d round(s), injector activity %v", rounds, total)
}

// TestChaosCorruptCheckpointResume is the durability acceptance path: a
// partially complete dispatch campaign whose active checkpoint is
// destroyed (torn in half, as a crash mid-write would leave it) must
// resume from the rotated last-good snapshot — counted in the metrics —
// and still finish to the fault-free bytes.
func TestChaosCorruptCheckpointResume(t *testing.T) {
	spec := soakSpec(t)
	want := soakBaseline(t, spec)

	// Phase 1: partial progress on a checkpointing server. A batch of 1
	// makes every completed shard its own upload, and a floor of 1 puts
	// scheduled saves at 1, 2 and 4 shards, so the drain point after six
	// leaves both an active snapshot (4 jobs) and a .prev (2) behind.
	dir1 := t.TempDir()
	srv1 := NewServer()
	srv1.CheckpointDir = dir1
	srv1.CheckpointEvery = 1
	ts1 := httptest.NewServer(srv1.Handler())
	defer ts1.Close()
	id := soakSubmit(t, ts1, spec)

	var done atomic.Int64
	var w *Worker
	opts := WorkerOptions{
		BaseURL: ts1.URL, Campaign: id, Name: "partial", Parallel: 1,
		OnJobDone: func(*JobResult) {
			if done.Add(1) >= 6 {
				w.Drain()
			}
		},
	}
	opts.leaseBatch = 1
	w = NewWorker(opts)
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := done.Load(); n < 6 {
		t.Fatalf("phase-1 worker drained after only %d jobs", n)
	}

	// Phase 2: the "server machine" dies and its disk comes back with the
	// active snapshot torn. Rebuild the deployment in a fresh checkpoint
	// directory: damaged active file, intact rotated one.
	active := filepath.Join(dir1, id+".json")
	prevData, err := os.ReadFile(active + ".prev")
	if err != nil {
		t.Fatalf("no rotated snapshot after %d checkpointed jobs: %v", done.Load(), err)
	}
	activeData, err := os.ReadFile(active)
	if err != nil {
		t.Fatal(err)
	}
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, id+".json"), activeData[:len(activeData)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir2, id+".json.prev"), prevData, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := NewServer()
	srv2.CheckpointDir = dir2
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	id2 := soakSubmit(t, ts2, spec)
	if id2 != id {
		t.Fatalf("replacement server assigned id %q; the damaged checkpoint is named for %q", id2, id)
	}

	st := soakStatus(t, ts2, id2)
	metrics := st["metrics"].(map[string]any)
	if got := metrics["checkpoint_recoveries"].(float64); got != 1 {
		t.Fatalf("checkpoint_recoveries = %v, want 1 (resume must fall back to the rotated snapshot)", got)
	}
	if got := metrics["jobs_restored"].(float64); got == 0 {
		t.Fatalf("recovery restored no jobs: %v", metrics)
	}

	// Phase 3: a clean worker finishes the resumed campaign; the re-run
	// of the shards lost with the torn snapshot must reconverge on the
	// fault-free bytes.
	w2 := NewWorker(WorkerOptions{
		BaseURL: ts2.URL, Campaign: id2, Name: "finisher", Parallel: 2,
	})
	if err := w2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if state := soakWaitDone(t, ts2, id2, 60*time.Second); state != StateDone {
		t.Fatalf("resumed campaign ended %q", state)
	}
	if got := soakCanonical(t, ts2, id2); !bytes.Equal(got, want) {
		t.Fatalf("resumed campaign diverged from fault-free run:\nserial:\n%s\nresumed:\n%s", want, got)
	}
}

// TestChaosDuplicateUploadIdempotent pins the idempotent-upload contract
// end to end: when every complete call's response is dropped once, the
// worker's retried uploads must be acknowledged as same-lease duplicates
// — never double-merged (the byte comparison) and never misclassified as
// fence drops from a competing holder — and each retry must get back the
// grants its lost reply carried, so no lease waits out the TTL.
func TestChaosDuplicateUploadIdempotent(t *testing.T) {
	spec := soakSpec(t)
	want := soakBaseline(t, spec)

	srv := NewServer()
	// A retry lands well inside this TTL, so every re-delivered upload is
	// a same-lease duplicate, not a re-lease. The grants a dropped reply
	// carried in Next come back in the retry's reply; were they orphaned
	// instead, each would wait out this TTL and requeue, and the test
	// would take tens of seconds instead of well under one.
	srv.LeaseTTL = 10 * time.Second
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := soakSubmit(t, ts, spec)

	rt := newChaosRoundTripper(chaosConfig{
		Seed:           1,
		PerOp:          map[string]chaosRates{"complete": {DropResponse: 1}},
		MaxConsecutive: 1, // alternate: every upload is delivered, loses its response, then its retry lands
	}, nil)
	w := NewWorker(WorkerOptions{
		BaseURL: ts.URL, Campaign: id, Name: "dup", Parallel: 2,
		Client:      &http.Client{Transport: rt, Timeout: 30 * time.Second},
		BackoffBase: 2 * time.Millisecond,
	})
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if state := soakWaitDone(t, ts, id, 60*time.Second); state != StateDone {
		t.Fatalf("campaign ended %q", state)
	}
	if got := soakCanonical(t, ts, id); !bytes.Equal(got, want) {
		t.Fatalf("duplicated uploads changed the merged bytes")
	}
	metrics := soakStatus(t, ts, id)["metrics"].(map[string]any)
	if got := metrics["duplicate_uploads"].(float64); got == 0 {
		t.Fatalf("no duplicate uploads recorded under complete-response drops: %v", metrics)
	}
	if got := metrics["results_fenced"].(float64); got != 0 {
		t.Fatalf("same-lease re-deliveries misclassified as fenced: %v", metrics)
	}
	if got := metrics["lease_requeues"].(float64); got != 0 {
		t.Fatalf("grants of a lost reply expired instead of being re-sent: %v", metrics)
	}
}
