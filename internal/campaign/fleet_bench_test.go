package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"perple/internal/litmus"
)

// benchFleetSpec mirrors fleetSpec without the *testing.T plumbing.
func benchFleetSpec(b *testing.B) Spec {
	b.Helper()
	spec := Spec{
		Tests:      []string{"sb", "mp", "lb"},
		Tools:      []string{"litmus7-user"},
		Iterations: 8000,
		ShardSize:  1000,
		Seed:       11,
	}
	if err := spec.Validate(); err != nil {
		b.Fatal(err)
	}
	return spec
}

// runFleetOnce drives one dispatch campaign end to end over a loopback
// HTTP server with k workers and returns the job count. A non-nil
// runJob replaces real shard execution (to isolate protocol cost). It
// returns as soon as the server reports the campaign done — idle
// workers mid-poll-sleep are cut loose by context so their wakeup
// latency (a liveness detail, not throughput) stays out of the timing.
func runFleetOnce(b *testing.B, spec Spec, k int, runJob jobFunc, mods ...func(*WorkerOptions)) int {
	b.Helper()
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/campaigns?mode=dispatch", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var sub struct {
		ID   string `json:"id"`
		Jobs int    `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || sub.ID == "" {
		b.Fatalf("submit failed: %v %+v", err, sub)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		opts := WorkerOptions{
			BaseURL: ts.URL, Campaign: sub.ID, Name: fmt.Sprintf("bw%d", i),
			Parallel: 2, runJob: runJob,
		}
		for _, mod := range mods {
			mod(&opts)
		}
		w := NewWorker(opts)
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				b.Error(err)
			}
		}(w)
	}
	for {
		r, err := http.Get(ts.URL + "/campaigns/" + sub.ID)
		if err != nil {
			b.Fatal(err)
		}
		var st struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if st.State != StateRunning {
			if st.State != StateDone {
				b.Fatalf("campaign ended %q", st.State)
			}
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	wg.Wait()
	return sub.Jobs
}

// BenchmarkFleetLoopback measures distributed-campaign throughput over
// loopback HTTP: a full dispatch campaign (submit → corpus → leases →
// execution → PWB1 uploads → merge) per op, for fleets of 1 and 4
// workers, reporting simulated iterations per second. Loopback workers
// share one host's cores, so k=4 tracks how the protocol behaves under
// fleet-shaped contention, not a real speedup — that comes from
// separate machines. The protocol-overhead variant replaces shard
// execution with a no-op, so its entire per-op time is dispatch
// machinery; proto_us/shard is the per-shard protocol cost a deployment
// amortizes against real shard runtime.
func BenchmarkFleetLoopback(b *testing.B) {
	spec := benchFleetSpec(b)
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", k), func(b *testing.B) {
			var jobs int
			for i := 0; i < b.N; i++ {
				jobs = runFleetOnce(b, spec, k, nil)
			}
			iters := float64(spec.Iterations) * float64(len(spec.Tests))
			b.ReportMetric(iters*float64(b.N)/b.Elapsed().Seconds(), "iters/sec")
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*jobs), "us/shard")
		})
	}
	b.Run("protocol-overhead", func(b *testing.B) {
		noop := func(_ context.Context, _ *workspace, job Job, _ *litmus.Test, _ Spec) (*JobResult, error) {
			return fakeResult(job), nil
		}
		var jobs int
		for i := 0; i < b.N; i++ {
			jobs = runFleetOnce(b, spec, 1, noop)
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*jobs), "proto_us/shard")
	})

	// The batch sweep isolates the lease batch size over the same no-op
	// runner, so the deltas are pure protocol cost.
	for _, batch := range []int{1, 8} {
		b.Run(fmt.Sprintf("wire=binary/batch=%d", batch), func(b *testing.B) {
			noop := func(_ context.Context, _ *workspace, job Job, _ *litmus.Test, _ Spec) (*JobResult, error) {
				return fakeResult(job), nil
			}
			var jobs int
			for i := 0; i < b.N; i++ {
				jobs = runFleetOnce(b, spec, 1, noop, func(o *WorkerOptions) { o.LeaseBatch = batch })
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*jobs), "proto_us/shard")
		})
	}

	// The payload sweep scales the per-shard histogram (the body of every
	// upload) to show how the codec's cost grows with result size.
	for _, keys := range []int{16, 256} {
		b.Run(fmt.Sprintf("payload=%dkeys/wire=binary", keys), func(b *testing.B) {
			fat := func(_ context.Context, _ *workspace, job Job, _ *litmus.Test, _ Spec) (*JobResult, error) {
				jr := fakeResult(job)
				jr.Histogram = make(map[string]int64, keys)
				for i := 0; i < keys; i++ {
					jr.Histogram[fmt.Sprintf("%d;%d;%d;", i, i%7, i%3)] = int64(i + 1)
				}
				return jr, nil
			}
			var jobs int
			for i := 0; i < b.N; i++ {
				jobs = runFleetOnce(b, spec, 1, fat)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*jobs), "proto_us/shard")
		})
	}
}
