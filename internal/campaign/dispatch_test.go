package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perple/internal/litmus"
)

// setClock replaces the dispatcher's time source, to force lease
// expiry without sleeping.
func (d *Dispatcher) setClock(now func() time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.now = now
}

// fleetSpec is a real (simulator-backed) campaign small enough that a
// serial run and several fleet runs all finish in well under a second.
func fleetSpec(t *testing.T) Spec {
	t.Helper()
	spec := Spec{
		Tests:      []string{"sb", "mp", "lb"},
		Tools:      []string{"litmus7-user"},
		Iterations: 400,
		ShardSize:  100,
		Seed:       11,
		Workers:    2,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return spec
}

// serialCanonical is the independent reference every execution path
// must reproduce exactly: runJob over the expanded jobs in ID order,
// folded with Results.Add, rendered as the canonical result document.
// It shares no lease, retry, or merge code with the Dispatcher, so a
// local run and a fleet that both match it agree for a reason.
func serialCanonical(t *testing.T, spec Spec) []byte {
	t.Helper()
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := NewResults()
	for _, job := range camp.Jobs() {
		jr, err := runJob(context.Background(), new(workspace), job, camp.tests[job.Test], camp.Spec)
		if err != nil {
			t.Fatalf("job %d: %v", job.ID, err)
		}
		res.Add(jr)
	}
	data, err := res.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// submitDispatch posts the spec in dispatch mode and returns the
// campaign id.
func submitDispatch(t *testing.T, ts *httptest.Server, spec Spec) string {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	code, sub := postJSON(t, ts.URL+"/campaigns?mode=dispatch", string(body))
	if code != http.StatusAccepted {
		t.Fatalf("dispatch submit = %d: %v", code, sub)
	}
	if sub["mode"] != "dispatch" {
		t.Fatalf("submit response lacks dispatch mode: %v", sub)
	}
	return sub["id"].(string)
}

// fetchCanonical downloads the canonical result document.
func fetchCanonical(t *testing.T, ts *httptest.Server, id string) []byte {
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

// TestFleetByteIdentical is the dispatch layer's core property: a fleet
// of k loopback workers produces byte-identical canonical results to the
// serial reference, for k ∈ {1, 4}.
func TestFleetByteIdentical(t *testing.T) {
	spec := fleetSpec(t)
	want := serialCanonical(t, spec)

	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", k), func(t *testing.T) {
			_, ts := newTestServer(t)
			id := submitDispatch(t, ts, spec)

			var wg sync.WaitGroup
			errs := make([]error, k)
			for i := 0; i < k; i++ {
				w := NewWorker(WorkerOptions{
					BaseURL:  ts.URL,
					Campaign: id,
					Name:     fmt.Sprintf("w%d", i),
					Parallel: 2,
				})
				wg.Add(1)
				go func(i int, w *Worker) {
					defer wg.Done()
					errs[i] = w.Run(context.Background())
				}(i, w)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", i, err)
				}
			}
			if state := pollState(t, ts, id, 30*time.Second); state != StateDone {
				t.Fatalf("fleet campaign ended %q", state)
			}
			got := fetchCanonical(t, ts, id)
			if !bytes.Equal(got, want) {
				t.Fatalf("fleet of %d diverged from serial run:\nserial:\n%s\nfleet:\n%s", k, want, got)
			}
		})
	}
}

// TestFleetSurvivesWorkerKill kills a worker mid-lease (hard context
// cancel, nothing uploaded) and lets a second worker finish after the
// leases expire and requeue — the final bytes must still match the
// serial run, and the requeue must be visible in the metrics.
func TestFleetSurvivesWorkerKill(t *testing.T) {
	spec := fleetSpec(t)
	spec.MaxRetries = 3
	want := serialCanonical(t, spec)

	srv, ts := newTestServer(t)
	srv.LeaseTTL = 100 * time.Millisecond
	id := submitDispatch(t, ts, spec)

	// Worker A leases a batch, starts "executing", and is killed without
	// uploading anything.
	leased := make(chan struct{})
	var once sync.Once
	ctxA, killA := context.WithCancel(context.Background())
	defer killA()
	wA := NewWorker(WorkerOptions{
		BaseURL: ts.URL, Campaign: id, Name: "doomed", Parallel: 2, leaseBatch: 4,
		runJob: func(ctx context.Context, _ *workspace, _ Job, _ *litmus.Test, _ Spec) (*JobResult, error) {
			once.Do(func() { close(leased) })
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	doneA := make(chan error, 1)
	go func() { doneA <- wA.Run(ctxA) }()
	select {
	case <-leased:
	case <-time.After(10 * time.Second):
		t.Fatal("worker A never started a job")
	}
	killA()
	if err := <-doneA; !errors.Is(err, context.Canceled) {
		t.Fatalf("killed worker returned %v", err)
	}

	// Worker B (real runner) arrives after the TTL and drains the
	// campaign, requeued shards included.
	wB := NewWorker(WorkerOptions{BaseURL: ts.URL, Campaign: id, Name: "survivor", Parallel: 2})
	if err := wB.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if state := pollState(t, ts, id, 30*time.Second); state != StateDone {
		t.Fatalf("campaign ended %q", state)
	}
	if got := fetchCanonical(t, ts, id); !bytes.Equal(got, want) {
		t.Fatalf("post-kill fleet diverged from serial run:\nserial:\n%s\nfleet:\n%s", want, got)
	}

	st := getJSON(t, ts.URL+"/campaigns/"+id, http.StatusOK)
	metrics := st["metrics"].(map[string]any)
	if metrics["lease_requeues"].(float64) == 0 {
		t.Fatalf("worker kill produced no lease requeues: %v", metrics)
	}
}

// TestFleetGracefulDrain drains a worker after its first job: in-flight
// work uploads, unstarted grants are released (no retry budget spent),
// and a second worker finishes to the same bytes.
func TestFleetGracefulDrain(t *testing.T) {
	spec := fleetSpec(t)
	want := serialCanonical(t, spec)

	_, ts := newTestServer(t)
	id := submitDispatch(t, ts, spec)

	var wA *Worker
	wA = NewWorker(WorkerOptions{
		BaseURL: ts.URL, Campaign: id, Name: "drainer", Parallel: 1, leaseBatch: 6,
		OnJobDone: func(*JobResult) { wA.Drain() },
	})
	if err := wA.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := wA.JobsCompleted.Load(); got == 0 || got >= 6 {
		t.Fatalf("drained worker completed %d jobs, want a strict subset of its batch", got)
	}

	wB := NewWorker(WorkerOptions{BaseURL: ts.URL, Campaign: id, Name: "finisher", Parallel: 2})
	if err := wB.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if state := pollState(t, ts, id, 30*time.Second); state != StateDone {
		t.Fatalf("campaign ended %q", state)
	}
	if got := fetchCanonical(t, ts, id); !bytes.Equal(got, want) {
		t.Fatalf("drain+handoff diverged from serial run")
	}

	// Released leases must not have charged the retry budget: no
	// failures, and the serial comparison above already proves no loss.
	st := getJSON(t, ts.URL+"/campaigns/"+id, http.StatusOK)
	metrics := st["metrics"].(map[string]any)
	if metrics["jobs_failed"].(float64) != 0 {
		t.Fatalf("graceful drain burned retry budget: %v", metrics)
	}
}

// TestDispatcherResumeMidLease restarts the dispatcher while shards are
// leased out: the checkpoint restores every merged result, the replacement
// re-leases only the unfinished shards, a duplicate upload from the dead
// server's lease holder is fenced, and the final document is byte-identical
// to an uninterrupted run.
func TestDispatcherResumeMidLease(t *testing.T) {
	spec := fleetSpec(t)
	cp := filepath.Join(t.TempDir(), "cp.json")

	newCamp := func() *Campaign {
		camp, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		return camp
	}

	// Reference: an uninterrupted serial run with the same fabricated
	// results the dispatch path will merge.
	ref := NewResults()
	for _, job := range newCamp().Jobs() {
		ref.Add(fakeResult(job))
	}
	want, err := ref.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}

	// A floor of 1 puts the first scheduled save at the first exchange
	// that merges: the five shards below.
	opts := Options{CheckpointPath: cp, CheckpointEvery: 1}
	d1, err := NewDispatcher(newCamp(), time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	grants := d1.Lease(LeaseRequest{Worker: "w1", Max: 100}).Grants
	total := len(grants)
	if total < 10 {
		t.Fatalf("campaign expanded only %d jobs", total)
	}
	// Five shards complete before the "server" dies mid-lease.
	var partial CompleteRequest
	for _, g := range grants[:5] {
		partial.Results = append(partial.Results, WorkerResult{LeaseID: g.LeaseID, Result: fakeResult(g.Job)})
	}
	if resp := d1.Complete(partial, 0); resp.Merged != 5 {
		t.Fatalf("pre-restart merge = %+v", resp)
	}
	// d1 is now abandoned with total-5 shards still leased — the restart.

	d2, err := NewDispatcher(newCamp(), time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	pending, leased, done, failed := d2.Status()
	if done != 5 || pending != total-5 || leased != 0 || failed != 0 {
		t.Fatalf("restored ledger = %d pending, %d leased, %d done, %d failed", pending, leased, done, failed)
	}

	// The dead server's worker retries its upload against the new one:
	// every already-merged shard must fence, not double-merge.
	if resp := d2.Complete(partial, 0); resp.Fenced != 5 || resp.Merged != 0 {
		t.Fatalf("post-restart duplicate upload = %+v, want 5 fenced", resp)
	}

	regrants := d2.Lease(LeaseRequest{Worker: "w2", Max: 100}).Grants
	if len(regrants) != total-5 {
		t.Fatalf("re-leased %d shards, want %d", len(regrants), total-5)
	}
	var rest CompleteRequest
	for _, g := range regrants {
		rest.Results = append(rest.Results, WorkerResult{LeaseID: g.LeaseID, Result: fakeResult(g.Job)})
	}
	resp := d2.Complete(rest, 0)
	if resp.Merged != total-5 || !resp.Done {
		t.Fatalf("final merge = %+v", resp)
	}
	select {
	case <-d2.Finished():
	case <-time.After(time.Second):
		t.Fatal("dispatcher did not finish")
	}
	res, cpErr, cancelled := d2.Outcome()
	if cpErr != nil || cancelled {
		t.Fatalf("outcome err=%v cancelled=%v", cpErr, cancelled)
	}
	got, err := res.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed run diverged:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestLeaseExpiryRequeueDeterministic drives expiry with a fake clock
// twice and checks the requeue produces the same grants in the same
// order both times, that a pre-expiry holder's late result is accepted
// (deterministic per shard seed), and that the replacement's copy then
// fences.
func TestLeaseExpiryRequeueDeterministic(t *testing.T) {
	spec := fleetSpec(t)
	spec.MaxRetries = 2

	type grantRecord struct {
		JobID   int
		LeaseID int64
	}
	run := func() []grantRecord {
		camp, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDispatcher(camp, time.Minute, Options{})
		if err != nil {
			t.Fatal(err)
		}
		now := time.Unix(1000, 0)
		d.setClock(func() time.Time { return now })

		first := d.Lease(LeaseRequest{Worker: "slow", Max: 3}).Grants
		if len(first) != 3 {
			t.Fatalf("granted %d, want 3", len(first))
		}
		now = now.Add(2 * time.Minute) // all three leases expire

		second := d.Lease(LeaseRequest{Worker: "fast", Max: 3}).Grants
		if len(second) != 3 {
			t.Fatalf("re-granted %d, want 3", len(second))
		}
		var rec []grantRecord
		for _, g := range second {
			rec = append(rec, grantRecord{g.Job.ID, g.LeaseID})
		}

		// The slow worker finally reports its first shard under the
		// superseded lease: the job is not done, results are deterministic
		// per seed, so it merges.
		late := CompleteRequest{Worker: "slow", Results: []WorkerResult{
			{LeaseID: first[0].LeaseID, Result: fakeResult(first[0].Job)},
		}}
		if resp := d.Complete(late, 0); resp.Merged != 1 {
			t.Fatalf("late pre-expiry result = %+v, want merged", resp)
		}
		// The replacement holder finishes the same shard: fenced.
		dup := CompleteRequest{Worker: "fast", Results: []WorkerResult{
			{LeaseID: second[0].LeaseID, Result: fakeResult(second[0].Job)},
		}}
		if resp := d.Complete(dup, 0); resp.Fenced != 1 || resp.Merged != 0 {
			t.Fatalf("replacement result = %+v, want fenced", resp)
		}
		if d.metrics.LeaseRequeues.Load() != 3 {
			t.Fatalf("LeaseRequeues = %d, want 3", d.metrics.LeaseRequeues.Load())
		}
		return rec
	}

	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("requeue grant %d differs across identical runs: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && a[i].JobID < a[i-1].JobID {
			t.Fatalf("requeued grants out of job-ID order: %+v", a)
		}
	}
}

// TestLeaseQueueBudgetAndNonces covers the ledger's edge rules directly:
// heartbeats only extend the current nonce, a release costs no budget,
// and expiries past the budget turn into permanent failures.
func TestLeaseQueueBudgetAndNonces(t *testing.T) {
	jobs := []Job{{ID: 0}, {ID: 1}}
	now := time.Unix(0, 0)
	q := newQueue(jobs, time.Minute, 1)

	granted := qLease(q, "w1", 2, now)
	if len(granted) != 2 {
		t.Fatalf("granted %d", len(granted))
	}
	// Wrong worker or stale nonce must not extend.
	if qHeartbeat(q, "w2", LeaseRef{JobID: 0, LeaseID: granted[0].LeaseID}, now) {
		t.Fatal("foreign worker extended a lease")
	}
	if qHeartbeat(q, "w1", LeaseRef{JobID: 0, LeaseID: granted[0].LeaseID + 7}, now) {
		t.Fatal("stale nonce extended a lease")
	}
	// A real heartbeat pushes expiry past the sweep horizon.
	now = now.Add(50 * time.Second)
	if !qHeartbeat(q, "w1", LeaseRef{JobID: 0, LeaseID: granted[0].LeaseID}, now) {
		t.Fatal("valid heartbeat rejected")
	}
	now = now.Add(30 * time.Second) // job 0 extended; job 1 at 80s > 60s TTL
	requeued, failed := qSweep(q, now)
	if len(requeued) != 1 || requeued[0].job.ID != 1 || len(failed) != 0 {
		t.Fatalf("sweep = %v requeued, %v failed", len(requeued), len(failed))
	}

	// Release returns the job without burning budget.
	if !qRelease(q, "w1", LeaseRef{JobID: 0, LeaseID: granted[0].LeaseID}) {
		t.Fatal("release rejected")
	}
	if e := q.entries[0]; e.state != statePending || e.attempts != 0 {
		t.Fatalf("released entry = %+v", e)
	}

	// Burn job 1's budget: attempt 1 (sweep above) + attempt 2 exceeds
	// maxRetries=1 and fails it permanently.
	if g := qLease(q, "w1", 1, now); len(g) != 1 || g[0].Job.ID != 0 {
		t.Fatalf("expected job 0 first, got %+v", g)
	}
	if g := qLease(q, "w1", 1, now); len(g) != 1 || g[0].Job.ID != 1 {
		t.Fatalf("expected job 1, got %+v", g)
	}
	now = now.Add(2 * time.Minute)
	_, failed = qSweep(q, now)
	if len(failed) != 1 || failed[0].job.ID != 1 || !failed[0].failed {
		t.Fatalf("budget exhaustion: %+v", failed)
	}
	if !strings.Contains(failed[0].failErr, "lease expired") {
		t.Fatalf("failure reason = %q", failed[0].failErr)
	}
}

// TestMetricsPrometheusNegotiation checks /metrics serves the Prometheus
// text exposition format when a scraper asks for it and keeps JSON as
// the default, with the dispatch counters present in both.
func TestMetricsPrometheusNegotiation(t *testing.T) {
	_, ts := newTestServer(t)

	// Default (no Accept preference) stays JSON.
	m := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	sched := m["scheduler"].(map[string]any)
	for _, key := range []string{"leases_granted", "lease_requeues", "heartbeats", "results_fenced", "wire_bytes_recv", "wal_compactions", "checkpoint_saves", "checkpoint_ns", "checkpoint_bytes"} {
		if _, ok := sched[key]; !ok {
			t.Fatalf("JSON metrics missing %q: %v", key, sched)
		}
	}

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	text := string(body)
	for _, family := range []string{
		"# TYPE perple_leases_granted_total counter",
		"# TYPE perple_lease_requeues_total counter",
		"# TYPE perple_heartbeats_total counter",
		"# TYPE perple_results_fenced_total counter",
		"# TYPE perple_wire_bytes_recv_total counter",
		"# TYPE perple_wal_compactions_total counter",
		"# TYPE perple_checkpoint_saves_total counter",
		"# TYPE perple_checkpoint_ns_total counter",
		"# TYPE perple_checkpoint_bytes_total counter",
		"# TYPE perple_queue_depth gauge",
		"# HELP perple_campaigns ",
	} {
		if !strings.Contains(text, family) {
			t.Fatalf("Prometheus exposition missing %q:\n%s", family, text)
		}
	}
}

// TestFleetRecordsRetries: a job that failed once before merging carries
// Retries 1 on the fleet path too — the dispatcher sets it from its own
// ledger before the checkpoint sees the result. It also pins that the
// upload-batch histogram counts fleet uploads.
func TestFleetRecordsRetries(t *testing.T) {
	spec := fleetSpec(t)
	srv, ts := newTestServer(t)
	id := submitDispatch(t, ts, spec)

	var failed atomic.Bool
	w := NewWorker(WorkerOptions{
		BaseURL: ts.URL, Campaign: id, Name: "flaky", Parallel: 1,
		runJob: func(_ context.Context, _ *workspace, job Job, _ *litmus.Test, _ Spec) (*JobResult, error) {
			if job.ID == 0 && failed.CompareAndSwap(false, true) {
				return nil, errors.New("transient")
			}
			return fakeResult(job), nil
		},
	})
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if state := pollState(t, ts, id, 30*time.Second); state != StateDone {
		t.Fatalf("campaign ended %q", state)
	}
	done, _, _, err := LoadCheckpointLedgerFS(osCheckpointFS{}, filepath.Join(srv.CheckpointDir, id+".json"), spec)
	if err != nil {
		t.Fatal(err)
	}
	for jobID, jr := range done {
		want := 0
		if jobID == 0 {
			want = 1
		}
		if jr.Retries != want {
			t.Fatalf("job %d checkpointed with Retries %d, want %d", jobID, jr.Retries, want)
		}
	}
	srv.mu.Lock()
	d := srv.runs[id].dispatcher
	srv.mu.Unlock()
	batch := d.metrics.WireBatch.Snapshot()
	if batch.Count == 0 || batch.Sum != int64(len(done)) {
		t.Fatalf("upload histogram = %+v, want uploads summing to %d results", batch, len(done))
	}
}

// TestLocalRunLeavesWireMetricsEmpty: in-process executors report to the
// dispatcher directly, so a local run moves none of the wire counters a
// fleet's uploads feed.
func TestLocalRunLeavesWireMetricsEmpty(t *testing.T) {
	camp, err := New(fleetSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	m := &Metrics{}
	if _, err := camp.Run(context.Background(), Options{Metrics: m}); err != nil {
		t.Fatal(err)
	}
	if batch := m.WireBatch.Snapshot(); batch.Count != 0 {
		t.Fatalf("local run observed %d upload batches", batch.Count)
	}
	if m.WireBytesRecv.Load() != 0 {
		t.Fatalf("local run counted %d upload bytes", m.WireBytesRecv.Load())
	}
}
