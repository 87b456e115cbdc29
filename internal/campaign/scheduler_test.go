package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"perple/internal/litmus"
)

func smallSpec(t *testing.T) Spec {
	t.Helper()
	spec := Spec{
		Tests:      []string{"sb", "mp", "lb"},
		Tools:      []string{"litmus7-user"},
		Iterations: 40,
		ShardSize:  10,
		Workers:    4,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return spec
}

// fakeResult fabricates a deterministic result for a job without
// touching the simulator (scheduler tests care about orchestration, not
// physics).
func fakeResult(job Job) *JobResult {
	return &JobResult{
		JobID: job.ID, Test: job.Test, Tool: job.Tool, Preset: job.Preset,
		Shard: job.Shard, N: job.N, Seed: job.Seed,
		Target: int64(job.ID), Ticks: int64(job.N) * 10,
	}
}

func TestSchedulerRunsAllJobs(t *testing.T) {
	camp, err := New(smallSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	metrics := &Metrics{}
	res, err := camp.Run(context.Background(), Options{
		Metrics: metrics,
		runJob: func(_ context.Context, _ *workspace, job Job, test *litmus.Test, _ Spec) (*JobResult, error) {
			if test == nil || test.Name != job.Test {
				return nil, fmt.Errorf("job %d handed wrong test %v", job.ID, test)
			}
			calls.Add(1)
			return fakeResult(job), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantJobs := int64(len(camp.Jobs()))
	if calls.Load() != wantJobs {
		t.Fatalf("ran %d jobs, want %d", calls.Load(), wantJobs)
	}
	if got := metrics.JobsCompleted.Load(); got != wantJobs {
		t.Fatalf("JobsCompleted = %d, want %d", got, wantJobs)
	}
	// A finished run's ledger has no pending or leased row left.
	if depth, inFlight := metrics.QueueDepth.Load(), metrics.InFlight.Load(); depth != 0 || inFlight != 0 {
		t.Fatalf("after the run QueueDepth = %d and InFlight = %d, want 0 and 0", depth, inFlight)
	}
	if got := metrics.Iterations.Load(); got != 3*40 {
		t.Fatalf("Iterations = %d, want 120", got)
	}
	if _, _, n := res.Totals(); n != 3*40 {
		t.Fatalf("result iterations = %d", n)
	}
}

func TestSchedulerRetriesTransientFailures(t *testing.T) {
	spec := smallSpec(t)
	spec.MaxRetries = 3
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Every job fails twice before succeeding. The count is per job: a
	// shared counter let concurrent executors push one job past its
	// budget.
	attempts := make([]atomic.Int64, len(camp.Jobs()))
	var merged int // OnJobDone calls are serialized
	metrics := &Metrics{}
	res, err := camp.Run(context.Background(), Options{
		Metrics: metrics,
		runJob: func(_ context.Context, _ *workspace, job Job, _ *litmus.Test, _ Spec) (*JobResult, error) {
			if attempts[job.ID].Add(1) <= 2 {
				return nil, errors.New("transient")
			}
			return fakeResult(job), nil
		},
		OnJobDone: func(jr *JobResult) {
			merged++
			if jr.Retries != 2 {
				t.Errorf("job %d merged with Retries %d, want 2", jr.JobID, jr.Retries)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("failures = %v", res.Failures)
	}
	if jobs := len(camp.Jobs()); merged != jobs || metrics.Retries.Load() != int64(2*jobs) {
		t.Fatalf("merged %d jobs with %d retries, want %d with %d", merged, metrics.Retries.Load(), jobs, 2*jobs)
	}
	for _, g := range res.Groups {
		if g.N == 0 {
			t.Fatalf("group %s/%s empty after retries", g.Test, g.Tool)
		}
	}
}

func TestSchedulerCollectsPermanentFailuresAndContinues(t *testing.T) {
	spec := smallSpec(t)
	spec.MaxRetries = 1
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	metrics := &Metrics{}
	res, err := camp.Run(context.Background(), Options{
		Metrics: metrics,
		runJob: func(_ context.Context, _ *workspace, job Job, _ *litmus.Test, _ Spec) (*JobResult, error) {
			if job.Test == "mp" {
				return nil, errors.New("poisoned test")
			}
			return fakeResult(job), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 4 { // mp has 4 shards
		t.Fatalf("got %d failures, want 4: %v", len(res.Failures), res.Failures)
	}
	for _, f := range res.Failures {
		if f.Test != "mp" || f.Attempts != 2 {
			t.Fatalf("unexpected failure record %+v", f)
		}
	}
	if metrics.JobsFailed.Load() != 4 {
		t.Fatalf("JobsFailed = %d", metrics.JobsFailed.Load())
	}
	// The other tests' shards all completed.
	if _, _, n := res.Totals(); n != 2*40 {
		t.Fatalf("iterations = %d, want 80", n)
	}
}

func TestSchedulerRecoversPanics(t *testing.T) {
	spec := smallSpec(t)
	spec.MaxRetries = 0
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Run(context.Background(), Options{
		runJob: func(_ context.Context, _ *workspace, job Job, _ *litmus.Test, _ Spec) (*JobResult, error) {
			if job.Test == "lb" {
				panic("kaboom")
			}
			return fakeResult(job), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 4 {
		t.Fatalf("got %d failures, want 4", len(res.Failures))
	}
	for _, f := range res.Failures {
		if !strings.Contains(f.Err, "kaboom") || !strings.Contains(f.Err, "panicked") {
			t.Fatalf("failure lost the panic message: %+v", f)
		}
	}
}

func TestSchedulerCancelsPromptly(t *testing.T) {
	spec := smallSpec(t)
	spec.Iterations = 1000
	spec.ShardSize = 10 // 300 jobs
	spec.Workers = 2
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	begin := time.Now()
	done := make(chan struct{})
	var res *Results
	var runErr error
	go func() {
		defer close(done)
		res, runErr = camp.Run(ctx, Options{
			runJob: func(ctx context.Context, _ *workspace, job Job, _ *litmus.Test, _ Spec) (*JobResult, error) {
				if started.Add(1) == 3 {
					cancel()
				}
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-time.After(5 * time.Millisecond):
					return fakeResult(job), nil
				}
			},
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled campaign did not return")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("run error = %v, want context.Canceled", runErr)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// Far fewer than all 300 jobs ran, and no aborted job leaked into
	// the totals.
	if _, _, n := res.Totals(); n >= 3000 {
		t.Fatalf("cancelled run still accumulated %d iterations", n)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	spec := smallSpec(t)
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cp.json")
	done := map[int]*JobResult{}
	for _, job := range camp.Jobs()[:5] {
		done[job.ID] = fakeResult(job)
	}
	if err := SaveCheckpoint(path, spec, done); err != nil {
		t.Fatal(err)
	}
	restored, _, _, err := LoadCheckpointLedgerFS(osCheckpointFS{}, path, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 5 {
		t.Fatalf("restored %d jobs", len(restored))
	}
	for id, jr := range restored {
		if jr.JobID != id || jr.Target != int64(id) {
			t.Fatalf("restored job %d mangled: %+v", id, jr)
		}
	}

	// A different campaign must refuse the checkpoint.
	other := spec
	other.Seed = 777
	if err := other.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadCheckpointLedgerFS(osCheckpointFS{}, path, other); err == nil {
		t.Fatal("checkpoint accepted by a different spec")
	}

	// Worker count and retry budget may change across a resume.
	tuned := spec
	tuned.Workers = 1
	tuned.MaxRetries = 9
	if err := tuned.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadCheckpointLedgerFS(osCheckpointFS{}, path, tuned); err != nil {
		t.Fatalf("resume with different worker count refused: %v", err)
	}
}

func TestSchedulerChecksCheckpointJobIdentity(t *testing.T) {
	spec := smallSpec(t)
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	jr := fakeResult(camp.Jobs()[0])
	jr.Seed++ // corrupt
	if err := camp.validateRestored(map[int]*JobResult{jr.JobID: jr}); err == nil {
		t.Fatal("corrupted checkpoint entry accepted")
	}
	if err := camp.validateRestored(map[int]*JobResult{9999: fakeResult(Job{ID: 9999})}); err == nil {
		t.Fatal("out-of-range job id accepted")
	}
}

// TestRunMatchesSerialReference: Campaign.Run with one and with four
// in-process executors reproduces the independent serial reference
// byte for byte.
func TestRunMatchesSerialReference(t *testing.T) {
	spec := fleetSpec(t)
	want := serialCanonical(t, spec)
	for _, workers := range []int{1, 4} {
		spec.Workers = workers
		camp, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := camp.Run(context.Background(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("Run with %d workers diverged from the serial reference:\nserial:\n%s\nrun:\n%s", workers, want, got)
		}
	}
}

// fakeCanonical folds fakeResult over every job: the reference for runs
// that inject fakeResult as their runJob.
func fakeCanonical(t *testing.T, camp *Campaign) string {
	t.Helper()
	ref := NewResults()
	for _, job := range camp.Jobs() {
		ref.Add(fakeResult(job))
	}
	data, err := ref.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRunWALInterruptResume: with WALPath set, an interrupted local run
// records no cancellation, so a rerun on the same checkpoint and log
// resumes and reaches the uninterrupted bytes.
func TestRunWALInterruptResume(t *testing.T) {
	camp, err := New(smallSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := Options{
		CheckpointPath: filepath.Join(dir, "cp.json"),
		WALPath:        filepath.Join(dir, "cp.wal"),
		runJob: func(_ context.Context, _ *workspace, job Job, _ *litmus.Test, _ Spec) (*JobResult, error) {
			return fakeResult(job), nil
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	landed := 0
	interrupted := opts
	interrupted.OnJobDone = func(*JobResult) {
		if landed++; landed == 3 {
			cancel()
		}
	}
	if _, err := camp.Run(ctx, interrupted); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	_, ledger, _, err := LoadCheckpointLedgerFS(osCheckpointFS{}, opts.CheckpointPath, camp.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if ledger == nil || ledger.Cancelled {
		t.Fatalf("interrupted run left ledger %+v, want one without cancellation", ledger)
	}

	metrics := &Metrics{}
	opts.Metrics = metrics
	res, err := camp.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.JobsRestored.Load() < 3 {
		t.Fatalf("resume restored %d jobs, want at least 3", metrics.JobsRestored.Load())
	}
	got, err := res.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if want := fakeCanonical(t, camp); string(got) != want {
		t.Fatalf("resumed run diverged:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestRunReleasesCrashedInProcessLeases: a local run that crashed with
// leases out leaves grant records in its WAL. Those holders died with
// the process, so the rerun returns their jobs to pending without
// charging retry budget — even with MaxRetries 0 nothing dead-letters.
func TestRunReleasesCrashedInProcessLeases(t *testing.T) {
	spec := smallSpec(t)
	spec.MaxRetries = -1 // Validate maps it to a zero budget
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := Options{
		CheckpointPath: filepath.Join(dir, "cp.json"),
		WALPath:        filepath.Join(dir, "cp.wal"),
		runJob: func(_ context.Context, _ *workspace, job Job, _ *litmus.Test, _ Spec) (*JobResult, error) {
			return fakeResult(job), nil
		},
	}
	// The crashed run: one job merged, three leased, then the process
	// dies without a closing snapshot.
	crashed, err := newDispatcher(camp, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	lease := crashed.Lease(LeaseRequest{Worker: "local-0", Max: 4})
	if len(lease.Grants) != 4 {
		t.Fatalf("granted %d leases, want 4", len(lease.Grants))
	}
	g := lease.Grants[0]
	crashed.complete(CompleteRequest{Worker: "local-0", Results: []WorkerResult{{LeaseID: g.LeaseID, Result: fakeResult(g.Job)}}}, nil)
	crashed.wal.close()

	metrics := &Metrics{}
	opts.Metrics = metrics
	res, err := camp.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 || metrics.Retries.Load() != 0 {
		t.Fatalf("orphaned leases were charged: failures %v, retries %d", res.Failures, metrics.Retries.Load())
	}
	if metrics.JobsRestored.Load() != 1 {
		t.Fatalf("restored %d jobs, want the 1 merged before the crash", metrics.JobsRestored.Load())
	}
	got, err := res.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if want := fakeCanonical(t, camp); string(got) != want {
		t.Fatalf("run after crash diverged:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestCheckpointRejectsV1 pins the retirement of pre-CRC snapshots: a
// bare version-1 file is an error, neither restored nor mistaken for a
// fresh campaign.
func TestCheckpointRejectsV1(t *testing.T) {
	spec := smallSpec(t)
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := json.Marshal(Checkpoint{Version: 1, Spec: spec, Done: []*JobResult{fakeResult(camp.Jobs()[0])}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cp.json")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	done, _, _, err := LoadCheckpointLedgerFS(osCheckpointFS{}, path, spec)
	if err == nil || os.IsNotExist(err) || done != nil {
		t.Fatalf("v1 snapshot loaded as (%v, %v), want a rejection", done, err)
	}
	if _, err := camp.Run(context.Background(), Options{CheckpointPath: path}); err == nil {
		t.Fatal("Run resumed from a v1 snapshot")
	}
}
