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
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perple/internal/harness"
	"perple/internal/litmus"
)

// exchangeCounter counts dispatch requests per endpoint and records the
// Lease field of every upload it forwards.
type exchangeCounter struct {
	next http.Handler

	mu     sync.Mutex
	calls  map[string]int
	leases []int // CompleteRequest.Lease of each upload, in arrival order
}

func newExchangeCounter(next http.Handler) *exchangeCounter {
	return &exchangeCounter{next: next, calls: map[string]int{}}
}

func (c *exchangeCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	endpoint := r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:]
	if r.Method == http.MethodPost && endpoint == "complete" {
		body, _ := io.ReadAll(r.Body)
		var cr CompleteRequest
		lease := -1
		if harness.DecodeWireBinary(body, &cr, 0) == nil {
			lease = cr.Lease
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		c.mu.Lock()
		c.leases = append(c.leases, lease)
		c.mu.Unlock()
	}
	c.mu.Lock()
	c.calls[r.Method+" "+endpoint]++
	c.mu.Unlock()
	c.next.ServeHTTP(w, r)
}

func (c *exchangeCounter) count(endpoint string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls["POST "+endpoint]
}

// newDurableTestServer is newTestServer with a WAL fsynced every record,
// the fleet-durable configuration, behind a request counter.
func newDurableTestServer(t *testing.T, ttl time.Duration) (*exchangeCounter, *httptest.Server) {
	t.Helper()
	return newSlowDurableTestServer(t, ttl, 0)
}

// newSlowDurableTestServer is newDurableTestServer holding every
// /complete for delay before the dispatcher sees it: a slower exchange.
func newSlowDurableTestServer(t *testing.T, ttl, delay time.Duration) (*exchangeCounter, *httptest.Server) {
	t.Helper()
	srv := NewServer()
	srv.CheckpointDir = t.TempDir()
	srv.WALDir = srv.CheckpointDir
	srv.WALSyncEvery = 1
	srv.LeaseTTL = ttl
	counter := newExchangeCounter(srv.Handler())
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/complete") {
			time.Sleep(delay)
		}
		counter.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		srv.CancelAll()
		ts.Close()
	})
	return counter, ts
}

// localCanonical runs the spec through Campaign.Run.
func localCanonical(t *testing.T, spec Spec) []byte {
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

// TestFleetOneExchangePerShard pins the v3 exchange shape at a fixed
// batch of one job: after the corpus, the worker calls only /complete —
// once with a lease-only upload for its first two batches, and then once
// per shard, each upload leasing the next shard; the durable dispatcher
// fsyncs its WAL once per exchange; and the fleet's canonical bytes are
// Campaign.Run's.
func TestFleetOneExchangePerShard(t *testing.T) {
	spec := fleetSpec(t)
	want := localCanonical(t, spec)

	counter, ts := newDurableTestServer(t, 0)
	id := submitDispatch(t, ts, spec)
	w := NewWorker(WorkerOptions{BaseURL: ts.URL, Campaign: id, Name: "solo", Parallel: 1, leaseBatch: 1})
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if state := pollState(t, ts, id, 30*time.Second); state != StateDone {
		t.Fatalf("campaign ended %q", state)
	}
	if got := fetchCanonical(t, ts, id); !bytes.Equal(got, want) {
		t.Fatalf("fleet diverged from Campaign.Run:\nlocal:\n%s\nfleet:\n%s", want, got)
	}

	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	jobs := len(camp.Jobs())
	completes := counter.count("complete")
	if completes != jobs+1 || counter.count("lease") != 0 || counter.count("heartbeat") != 0 {
		t.Fatalf("%d jobs took %d /complete, %d /lease and %d /heartbeat calls; want %d, 0, 0",
			jobs, completes, counter.count("lease"), counter.count("heartbeat"), jobs+1)
	}
	for i, lease := range counter.leases {
		want := 1
		if i == 0 {
			want = 2 // the lease-only upload takes the first two batches
		}
		if lease != want {
			t.Fatalf("upload %d asked for %d grants, want %d", i, lease, want)
		}
	}
	metrics := getJSON(t, ts.URL+"/campaigns/"+id, http.StatusOK)["metrics"].(map[string]any)
	// Every exchange logged something (a grant, a merge, or both), and
	// the last one's records were flushed by the finish path instead.
	if got := int(metrics["wal_fsyncs"].(float64)); got != completes {
		t.Fatalf("%d WAL fsyncs over %d exchanges, want one per exchange", got, completes)
	}
	if got := int(metrics["wal_appends"].(float64)); got != 2*jobs {
		t.Fatalf("%d WAL appends, want %d (one grant and one merge per job)", got, 2*jobs)
	}
}

// sleepyRunJob runs the real job after a sleep of d, so a test fixes how
// a job's time compares with the exchange's.
func sleepyRunJob(d time.Duration) jobFunc {
	return func(ctx context.Context, ws *workspace, job Job, test *litmus.Test, spec Spec) (*JobResult, error) {
		if err := sleepCtx(ctx, d); err != nil {
			return nil, err
		}
		return runJob(ctx, ws, job, test, spec)
	}
}

// runSizedFleet runs spec on one default-batched worker (Parallel 1)
// whose jobs each take at least job and whose heartbeat period is
// heartbeat (0: a third of the default TTL), against a durable server
// whose lease TTL is three such periods and whose /complete takes at
// least exchange, and checks the fleet ends on
// Campaign.Run's bytes with two WAL records per job and no heartbeat.
// It returns the job count, the request counter and the campaign's
// metrics.
func runSizedFleet(t *testing.T, spec Spec, job, exchange, heartbeat time.Duration) (int, *exchangeCounter, map[string]any) {
	t.Helper()
	want := localCanonical(t, spec)
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	jobs := len(camp.Jobs())

	counter, ts := newSlowDurableTestServer(t, 3*heartbeat, exchange)
	id := submitDispatch(t, ts, spec)
	w := NewWorker(WorkerOptions{
		BaseURL: ts.URL, Campaign: id, Name: "sized", Parallel: 1,
		runJob: sleepyRunJob(job),
	})
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if state := pollState(t, ts, id, 30*time.Second); state != StateDone {
		t.Fatalf("campaign ended %q", state)
	}
	if got := fetchCanonical(t, ts, id); !bytes.Equal(got, want) {
		t.Fatalf("fleet diverged from Campaign.Run:\nlocal:\n%s\nfleet:\n%s", want, got)
	}
	metrics := getJSON(t, ts.URL+"/campaigns/"+id, http.StatusOK)["metrics"].(map[string]any)
	if got := int(metrics["wal_appends"].(float64)); got != 2*jobs {
		t.Fatalf("%d WAL appends, want %d (one grant and one merge per job): %v", got, 2*jobs, metrics)
	}
	if got := metrics["heartbeats"].(float64); got != 0 {
		t.Fatalf("%v leases extended, want none: %v", got, metrics)
	}
	return jobs, counter, metrics
}

// TestWorkerBatchSizeRule pins the default batch size against fixed
// times per job: 64 jobs, cut to half a heartbeat period of execution
// and floored at Parallel; Parallel until a batch has been timed; a
// pinned leaseBatch as given.
func TestWorkerBatchSizeRule(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name            string
		parallel, fixed int
		period, job     time.Duration
		want            int
	}{
		{"untimed", 2, 0, time.Minute, 0, 2},
		{"default", 1, 0, time.Minute, ms, 64},
		{"at least Parallel", 80, 0, time.Minute, ms, 80},
		{"half a heartbeat period", 1, 0, 20 * ms, ms, 10},
		{"heartbeat cap floors at Parallel", 3, 0, 2 * ms, ms, 3},
		{"pinned", 2, 5, time.Minute, ms, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := pipeline{parallel: tc.parallel, fixed: tc.fixed, period: tc.period, jobTime: tc.job}
			if got := p.batchSize(); got != tc.want {
				t.Fatalf("batch size %d, want %d", got, tc.want)
			}
		})
	}
	if got := newPipeline(3, 0).batchSize(); got != 3 {
		t.Fatalf("batch size before the first lease %d, want Parallel (3)", got)
	}
}

// TestWorkerBatchCoversExchange pins the default batch end to end: with
// an exchange of ~20 ms and jobs of ~1 ms, a handful of uploads carry
// every shard, none above the 64-job batch, while the WAL still logs
// exactly a grant and a merge per job and no lease needs extending.
func TestWorkerBatchCoversExchange(t *testing.T) {
	spec := fleetSpec(t)
	spec.Iterations = 800
	spec.ShardSize = 25 // 32 shards per test
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	jobs, counter, metrics := runSizedFleet(t, spec, time.Millisecond, 20*time.Millisecond, 0)
	if completes := counter.count("complete"); completes > jobs/4 {
		t.Fatalf("%d jobs took %d /complete calls, want at most %d", jobs, completes, jobs/4)
	}
	buckets, _ := metrics["wire_batch"].(map[string]any)["buckets"].(map[string]any)
	t.Logf("%d jobs: %d /complete calls, batch sizes %v", jobs, counter.count("complete"), buckets)
	for _, over := range []string{"128", "+Inf"} {
		if n, ok := buckets[over]; ok {
			t.Fatalf("%v uploads in wire_batch bucket %s, above the %d-job batch: %v", n, over, defaultBatch, buckets)
		}
	}
}

// TestWorkerBatchHeartbeatCap is the converse: jobs that take a third
// of the heartbeat period fit only one to the half period a batch may
// run, so the default worker keeps one job per batch and one upload,
// leasing one job, per shard, after the lease-only upload that takes its
// first two, and no lease is held long enough to need extending.
func TestWorkerBatchHeartbeatCap(t *testing.T) {
	spec := fleetSpec(t)
	spec.Tests = []string{"sb"}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	jobs, counter, _ := runSizedFleet(t, spec, 100*time.Millisecond, 0, 300*time.Millisecond)
	if completes := counter.count("complete"); completes != jobs+1 {
		t.Fatalf("%d slow jobs took %d /complete calls, want the first lease and one per shard", jobs, completes)
	}
	for i, lease := range counter.leases[1:] {
		if lease != 1 {
			t.Fatalf("upload %d asked for %d grants, want 1", i+1, lease)
		}
	}
}

// TestDispatcherResendsLostNext replays an upload whose reply was lost
// against a durable dispatcher. The retry is a duplicate for its result
// and gets back the lost reply's grants under the same lease IDs, with
// no new grant record in the WAL: each is extended from the re-send
// instead, since the worker holds it from then, and logs an extend
// record. A retry asking for more is topped up with fresh grants, each
// logged. A restarted dispatcher has forgotten the lost reply, so the
// same retry gets fresh grants, and the old ones are left to the TTL.
// A re-delivered lease-only upload gets its lost reply's grants back the
// same way; an upload carrying only stale failures does not.
func TestDispatcherResendsLostNext(t *testing.T) {
	spec := walTestSpec(t)
	dir := t.TempDir()
	open := func() *Dispatcher {
		t.Helper()
		camp, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDispatcher(camp, time.Minute, Options{
			CheckpointPath:  filepath.Join(dir, "cp.json"),
			WALPath:         filepath.Join(dir, "log.wal"),
			WALSyncEvery:    1,
			CheckpointEvery: 1 << 20,
			Metrics:         &Metrics{},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			d.mu.Lock()
			d.wal.close()
			d.mu.Unlock()
		})
		return d
	}
	ids := func(resp CompleteResponse) []int64 {
		var out []int64
		if resp.Next != nil {
			for _, g := range resp.Next.Grants {
				out = append(out, g.LeaseID)
			}
		}
		return out
	}
	// exchange posts upload and checks it merged nothing new and logged
	// wantAppends WAL records; it returns the reply's lease IDs.
	exchange := func(d *Dispatcher, upload CompleteRequest, wantAppends int64) []int64 {
		t.Helper()
		before := d.metrics.WALAppends.Load()
		resp := d.Complete(upload, 0)
		if resp.Duplicate != 1 || resp.Merged != 0 || resp.Fenced != 0 {
			t.Fatalf("retried upload = %+v, want its one result acknowledged as a duplicate", resp)
		}
		if got := d.metrics.WALAppends.Load() - before; got != wantAppends {
			t.Fatalf("retry logged %d WAL records, want %d", got, wantAppends)
		}
		return ids(resp)
	}

	d := open()
	now := time.Now()
	d.setClock(func() time.Time { return now })
	g := d.Lease(LeaseRequest{Worker: "w", Max: 1}).Grants[0]
	upload := CompleteRequest{
		Version: ProtocolVersion, Worker: "w", Lease: 3,
		Results: []WorkerResult{{LeaseID: g.LeaseID, Result: fakeResult(g.Job)}},
	}
	first := d.Complete(upload, 0)
	lost := ids(first)
	if first.Merged != 1 || len(lost) != 3 {
		t.Fatalf("first delivery = %+v, want 1 merged and 3 grants", first)
	}

	// The retry comes 40 s into the minute-long TTL: the re-sent leases
	// must now last a TTL from the re-send.
	now = now.Add(40 * time.Second)
	if got := exchange(d, upload, 3); !slices.Equal(got, lost) {
		t.Fatalf("retry got lease IDs %v, want the lost reply's %v", got, lost)
	}
	for _, ref := range d.lastNext["w"] {
		if e := d.q.entries[ref.JobID]; !e.expires.Equal(now.Add(time.Minute)) {
			t.Fatalf("re-sent lease %d expires %v after the re-send, want a TTL (1m0s)", ref.LeaseID, e.expires.Sub(now))
		}
	}
	upload.Lease = 5
	topped := exchange(d, upload, 3+2)
	if len(topped) != 5 || !slices.Equal(topped[:3], lost) {
		t.Fatalf("retry asking for 5 got lease IDs %v, want %v topped up by 2", topped, lost)
	}
	if got := d.metrics.LeasesGranted.Load(); got != 1+3+2 {
		t.Fatalf("%d leases granted, want 6: re-sent grants are not new grants", got)
	}

	// Restart: everything above was fsynced, and the new dispatcher
	// replays it, so the result is still a same-lease duplicate — but the
	// lost reply is forgotten.
	d.mu.Lock()
	d.wal.close()
	d.mu.Unlock()
	rep, err := replayWAL(osCheckpointFS{}, filepath.Join(dir, "log.wal"), specWALCRC(spec))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[int]int{}
	for _, rec := range rep.recs {
		kinds[rec.Kind]++
	}
	if kinds[walKindGrant] != 6 || kinds[walKindExtend] != 6 {
		t.Fatalf("WAL holds %d grant and %d extend records, want 6 grants and 6 extends (two re-sends of 3)",
			kinds[walKindGrant], kinds[walKindExtend])
	}
	d2 := open()
	upload.Lease = 3
	fresh := exchange(d2, upload, 3)
	if len(fresh) != 3 {
		t.Fatalf("retry after restart got %d grants, want 3", len(fresh))
	}
	for _, id := range fresh {
		if slices.Contains(topped, id) {
			t.Fatalf("retry after restart got lease %d back (%v); a restarted dispatcher has no lost reply to re-send", id, fresh)
		}
	}

	// A lease-only upload — a first lease or an idle poll, which a worker
	// sends only when it holds no grant — whose reply was lost gets the
	// same grants back when it is delivered again: no grant is new, and
	// each re-sent one logs an extend record, not a grant record.
	idle := CompleteRequest{Version: ProtocolVersion, Worker: "idle", Lease: 2}
	lostIdle := ids(d2.Complete(idle, 0))
	if len(lostIdle) != 2 {
		t.Fatalf("lease-only upload got lease IDs %v, want 2", lostIdle)
	}
	granted, appends := d2.metrics.LeasesGranted.Load(), d2.metrics.WALAppends.Load()
	if got := ids(d2.Complete(idle, 0)); !slices.Equal(got, lostIdle) {
		t.Fatalf("re-delivered lease-only upload got lease IDs %v, want the lost reply's %v", got, lostIdle)
	}
	if got := d2.metrics.LeasesGranted.Load() - granted; got != 0 {
		t.Fatalf("re-delivered lease-only upload granted %d new leases, want 0", got)
	}
	if got := d2.metrics.WALAppends.Load() - appends; got != int64(len(lostIdle)) {
		t.Fatalf("re-delivered lease-only upload logged %d WAL records, want %d extends", got, len(lostIdle))
	}

	// An upload carrying only stale failures and a Lease is not lease-only:
	// it gets fresh grants, not the last reply's again.
	stale := d2.Complete(CompleteRequest{
		Version: ProtocolVersion, Worker: "idle", Lease: 1,
		Failures: []WorkerFailure{{LeaseID: g.LeaseID, JobID: g.Job.ID, Err: "stale"}},
	}, 0)
	if got := ids(stale); stale.Requeued != 0 || stale.Failed != 0 || len(got) != 1 || slices.Contains(lostIdle, got[0]) {
		t.Fatalf("stale-failure upload = %+v with lease IDs %v, want nothing requeued and one fresh grant, not one of %v", stale, got, lostIdle)
	}
}

// syncFS is a WALFS over the real filesystem that counts WAL fsyncs and
// tracks how much of each log a crash would keep: the bytes written up
// to its last fsync.
type syncFS struct {
	osCheckpointFS
	syncs   int
	durable int64 // length of the current log segment as of its last fsync
}

type syncFile struct {
	WALFile
	fs      *syncFS
	written int64
}

func (f *syncFS) OpenAppend(name string) (WALFile, error) {
	wf, err := f.osCheckpointFS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	// A segment is installed fsynced (temp file, fsync, rename), so what
	// is on disk at open is durable.
	fi, err := os.Stat(name)
	if err != nil {
		return nil, err
	}
	f.durable = fi.Size()
	return &syncFile{WALFile: wf, fs: f, written: fi.Size()}, nil
}

func (f *syncFile) Write(p []byte) (int, error) {
	n, err := f.WALFile.Write(p)
	f.written += int64(n)
	return n, err
}

func (f *syncFile) Sync() error {
	f.fs.syncs++
	f.fs.durable = f.written
	return f.WALFile.Sync()
}

// crashImage is the log a kill at this instant leaves behind.
func (f *syncFS) crashImage(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data[:f.durable]
}

// TestWALCommitOncePerExchange pins the per-exchange group commit
// through a counting WALFS: at syncEvery 1 an upload that merges one
// result and leases the next job fsyncs exactly once, before the reply,
// so a kill right after the reply recovers both records; at syncEvery 8
// the cadence counts records across exchanges, never fsyncing more than
// once per exchange.
func TestWALCommitOncePerExchange(t *testing.T) {
	spec := walTestSpec(t)
	open := func(t *testing.T, syncEvery int) (*Dispatcher, *syncFS, Options) {
		t.Helper()
		dir := t.TempDir()
		fsys := &syncFS{}
		opts := Options{
			CheckpointPath:  filepath.Join(dir, "cp.json"),
			WALPath:         filepath.Join(dir, "log.wal"),
			WALSyncEvery:    syncEvery,
			CheckpointEvery: 1 << 20, // no mid-run compaction: every record stays in the log
			CheckpointFS:    fsys,
			Metrics:         &Metrics{},
		}
		camp, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDispatcher(camp, time.Minute, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			d.mu.Lock()
			d.wal.close()
			d.mu.Unlock()
		})
		return d, fsys, opts
	}

	t.Run("sync-every-1", func(t *testing.T) {
		d, fsys, opts := open(t, 1)
		lease := d.Lease(LeaseRequest{Worker: "w", Max: 1})
		if len(lease.Grants) != 1 || fsys.syncs != 1 {
			t.Fatalf("lease: %d grants, %d fsyncs; want 1, 1", len(lease.Grants), fsys.syncs)
		}
		g := lease.Grants[0]
		resp := d.Complete(CompleteRequest{
			Version: ProtocolVersion, Worker: "w", Lease: 1,
			Results: []WorkerResult{{LeaseID: g.LeaseID, Result: fakeResult(g.Job)}},
		}, 0)
		if resp.Merged != 1 || resp.Next == nil || len(resp.Next.Grants) != 1 {
			t.Fatalf("upload+lease = %+v, want 1 merged and 1 next grant", resp)
		}
		if fsys.syncs != 2 {
			t.Fatalf("upload+lease issued %d fsyncs, want exactly 1", fsys.syncs-1)
		}
		if got := d.metrics.WALFsyncs.Load(); got != 2 {
			t.Fatalf("WALFsyncs = %d, want 2", got)
		}

		// Kill right after the reply: only fsynced bytes survive.
		image := fsys.crashImage(t, opts.WALPath)
		rep, err := replayWAL(memFS{"image": image}, "image", specWALCRC(d.camp.Spec))
		if err != nil {
			t.Fatal(err)
		}
		kinds := make([]int, len(rep.recs))
		for i, rec := range rep.recs {
			kinds[i] = rec.Kind
		}
		if want := []int{walKindBegin, walKindGrant, walKindComplete, walKindGrant}; !slices.Equal(kinds, want) || rep.truncated != 0 {
			t.Fatalf("crash image replays kinds %v (torn %d), want %v", kinds, rep.truncated, want)
		}
		if got, want := recoveredFingerprint(t, spec, opts, image), dispatcherFingerprint(t, d); got != want {
			t.Fatalf("recovery from the crash image diverged from the acknowledged state:\nlive:\n%s\nrecovered:\n%s", want, got)
		}
	})

	t.Run("sync-every-8", func(t *testing.T) {
		const every = 8
		d, fsys, _ := open(t, every)
		unsynced, wantSyncs := 0, 0
		lease := d.Lease(LeaseRequest{Worker: "w", Max: 1})
		unsynced++ // one grant record
		for exchange := 0; len(lease.Grants) > 0; exchange++ {
			g := lease.Grants[0]
			resp := d.Complete(CompleteRequest{
				Version: ProtocolVersion, Worker: "w", Lease: 1,
				Results: []WorkerResult{{LeaseID: g.LeaseID, Result: fakeResult(g.Job)}},
			}, 0)
			if resp.Done {
				break // the finish path flushes the closing records itself
			}
			unsynced += 1 + len(resp.Next.Grants) // the merge, then the grant
			if unsynced >= every {
				wantSyncs++
				unsynced = 0
			}
			if fsys.syncs != wantSyncs {
				t.Fatalf("after exchange %d: %d fsyncs, want %d (cadence %d records)", exchange, fsys.syncs, wantSyncs, every)
			}
			lease = *resp.Next
		}
		if wantSyncs < 2 {
			t.Fatalf("only %d commits due; cadence not exercised", wantSyncs)
		}
	})
}

// dropNextResponse is a chaos round-tripper: it delivers the first
// upload that reports results and asks for grants, and then drops its
// response, as a network failure after the server acted would.
type dropNextResponse struct {
	base    http.RoundTripper
	dropped atomic.Bool
}

func (rt *dropNextResponse) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(req.URL.Path, "/complete") || rt.dropped.Load() {
		return rt.base.RoundTrip(req)
	}
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	req.Body = io.NopCloser(bytes.NewReader(body))
	var cr CompleteRequest
	if harness.DecodeWireBinary(body, &cr, 0) != nil || cr.Lease == 0 || len(cr.Results) == 0 || !rt.dropped.CompareAndSwap(false, true) {
		return rt.base.RoundTrip(req)
	}
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil, errors.New("chaos: response dropped")
}

// TestFleetDroppedNextResponse drops the reply to an upload that leased
// the next shard. The worker re-sends it: the results are acknowledged
// as a duplicate, the re-send gets the lost reply's grants again instead
// of fresh ones, so no lease waits out the TTL, and the campaign still
// ends byte-identical to the serial run.
func TestFleetDroppedNextResponse(t *testing.T) {
	spec := fleetSpec(t)
	want := serialCanonical(t, spec)
	_, ts := newDurableTestServer(t, time.Second)
	id := submitDispatch(t, ts, spec)

	rt := &dropNextResponse{base: http.DefaultTransport}
	w := NewWorker(WorkerOptions{
		BaseURL: ts.URL, Campaign: id, Name: "lossy", Parallel: 1,
		Client:      &http.Client{Transport: rt, Timeout: 30 * time.Second},
		BackoffBase: 2 * time.Millisecond,
	})
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !rt.dropped.Load() {
		t.Fatal("no lease-carrying upload was sent")
	}
	if state := pollState(t, ts, id, 30*time.Second); state != StateDone {
		t.Fatalf("campaign ended %q", state)
	}
	if got := fetchCanonical(t, ts, id); !bytes.Equal(got, want) {
		t.Fatalf("a dropped upload reply changed the merged bytes:\nserial:\n%s\nfleet:\n%s", want, got)
	}
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	metrics := getJSON(t, ts.URL+"/campaigns/"+id, http.StatusOK)["metrics"].(map[string]any)
	for key, want := range map[string]float64{
		"duplicate_uploads": 1, // the re-sent upload
		"results_fenced":    0,
		"lease_requeues":    0,                         // the lost reply's grant was re-sent, not stranded
		"leases_granted":    float64(len(camp.Jobs())), // one grant per job
		"jobs_failed":       0,
	} {
		if got := metrics[key].(float64); got != want {
			t.Fatalf("%s = %v, want %v: %v", key, got, want, metrics)
		}
	}
}

// TestWorkerDrainLeasesNothing drains a worker mid-batch, and separately
// just as a lease-carrying upload delivers its next batch: either way
// the worker's last upload asks for no grants and it exits holding none.
// A worker that kept leasing while draining would release and re-lease
// forever, so each run is bounded.
func TestWorkerDrainLeasesNothing(t *testing.T) {
	spec := fleetSpec(t)
	run := func(t *testing.T, w *Worker) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := w.Run(ctx); err != nil {
			t.Fatal(err)
		}
	}
	leased := func(t *testing.T, ts *httptest.Server, id string) int {
		st := getJSON(t, ts.URL+"/campaigns/"+id, http.StatusOK)
		return int(st["dispatch"].(map[string]any)["leased"].(float64))
	}

	t.Run("mid-batch", func(t *testing.T) {
		counter, ts := newDurableTestServer(t, 0)
		id := submitDispatch(t, ts, spec)
		var w *Worker
		w = NewWorker(WorkerOptions{
			BaseURL: ts.URL, Campaign: id, Name: "drainer", Parallel: 1, leaseBatch: 4,
			OnJobDone: func(*JobResult) { w.Drain() },
		})
		run(t, w)
		if want := []int{8, 0}; !slices.Equal(counter.leases, want) {
			t.Fatalf("uploads asked for %v grants, want %v (the first lease, then the drained batch)", counter.leases, want)
		}
		if got := leased(t, ts, id); got != 0 {
			t.Fatalf("drained worker left %d leases held", got)
		}
		if got := w.JobsCompleted.Load(); got == 0 || got >= 4 {
			t.Fatalf("drained worker completed %d jobs, want a strict subset of its batch of 4", got)
		}
	})

	t.Run("next-batch-arrives", func(t *testing.T) {
		counter, ts := newDurableTestServer(t, 0)
		id := submitDispatch(t, ts, spec)
		var (
			w          *Worker
			mu         sync.Mutex
			ran        []int
			afterDrain []int // jobs granted by a reply that arrived once draining
			replies    atomic.Int32
		)
		drainAfterNext := roundTripFunc(func(req *http.Request) (*http.Response, error) {
			resp, err := http.DefaultTransport.RoundTrip(req)
			if err != nil || !strings.HasSuffix(req.URL.Path, "/complete") {
				return resp, err
			}
			if replies.Add(1) == 1 {
				return resp, nil // the first lease: let its batches run
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			resp.Body = io.NopCloser(bytes.NewReader(body))
			var cr CompleteResponse
			if json.Unmarshal(body, &cr) == nil && cr.Next != nil {
				mu.Lock()
				for _, g := range cr.Next.Grants {
					afterDrain = append(afterDrain, g.Job.ID)
				}
				mu.Unlock()
			}
			w.Drain() // the reply, and its grants, are already on the way back
			return resp, nil
		})
		w = NewWorker(WorkerOptions{
			BaseURL: ts.URL, Campaign: id, Name: "drainer", Parallel: 1, leaseBatch: 2,
			Client: &http.Client{Transport: drainAfterNext},
			OnJobDone: func(jr *JobResult) {
				mu.Lock()
				ran = append(ran, jr.JobID)
				mu.Unlock()
			},
		})
		run(t, w)
		if want := []int{4, 2, 0}; !slices.Equal(counter.leases, want) {
			t.Fatalf("uploads asked for %v grants, want %v (the next batch is released unrun)", counter.leases, want)
		}
		if len(afterDrain) == 0 {
			t.Fatal("no upload reply carried grants: the drain raced nothing")
		}
		for _, id := range afterDrain {
			if slices.Contains(ran, id) {
				t.Fatalf("job %d, granted after Drain, ran (ran %v, granted after drain %v)", id, ran, afterDrain)
			}
		}
		if got := leased(t, ts, id); got != 0 {
			t.Fatalf("drained worker left %d leases held", got)
		}
	})
}

// TestWorkerOverlapsUploadWithNextShard pins the worker's lookahead
// without timing, at a batch of one job so that upload k carries shard
// k: the client holds every /complete request until the next shard has
// started, so the run finishes only if each upload is in flight while
// the following shard executes — a worker that waited for the upload's
// reply before starting its next shard would deadlock here, and fail at
// the timeout. The overlap must leave the canonical bytes Campaign.Run's.
func TestWorkerOverlapsUploadWithNextShard(t *testing.T) {
	spec := fleetSpec(t)
	want := localCanonical(t, spec)
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	jobs := int64(len(camp.Jobs()))

	_, ts := newDurableTestServer(t, 0)
	id := submitDispatch(t, ts, spec)
	var started, uploads atomic.Int64
	startCh := make(chan struct{}, jobs) // one signal per shard start
	holdUntilNextShard := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if strings.HasSuffix(req.URL.Path, "/complete") {
			// Upload 0 is the first lease, which no shard precedes; upload
			// k carries shard k, and the last upload has no next shard.
			need := int64(0)
			if k := uploads.Add(1) - 1; k > 0 {
				need = min(k+1, jobs)
			}
			timeout := time.After(10 * time.Second)
			for started.Load() < need {
				select {
				case <-startCh:
				case <-timeout:
					return nil, fmt.Errorf("upload held 10s: %d of %d shards started", started.Load(), need)
				}
			}
		}
		return http.DefaultTransport.RoundTrip(req)
	})
	w := NewWorker(WorkerOptions{
		BaseURL: ts.URL, Campaign: id, Name: "overlap", Parallel: 1, MaxAttempts: 1, leaseBatch: 1,
		Client: &http.Client{Transport: holdUntilNextShard},
		runJob: func(ctx context.Context, ws *workspace, job Job, test *litmus.Test, spec Spec) (*JobResult, error) {
			started.Add(1)
			select {
			case startCh <- struct{}{}:
			default: // a re-run shard; the waiter rechecks the count anyway
			}
			return runJob(ctx, ws, job, test, spec)
		},
	})
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if state := pollState(t, ts, id, 30*time.Second); state != StateDone {
		t.Fatalf("campaign ended %q", state)
	}
	if got := fetchCanonical(t, ts, id); !bytes.Equal(got, want) {
		t.Fatalf("pipelined worker diverged from Campaign.Run:\nlocal:\n%s\nfleet:\n%s", want, got)
	}
}

// TestWorkerHeartbeatsHeldLeases runs jobs that each outlast the lease
// TTL, two per batch, so a queued batch — leased by a lease-only upload
// or by a batch's upload — waits longer than a TTL before it starts: the worker
// must extend every lease it holds — running, completed but unshipped,
// and queued — or they expire and requeue.
func TestWorkerHeartbeatsHeldLeases(t *testing.T) {
	spec := fleetSpec(t)
	spec.Tests = []string{"sb", "mp"}
	want := serialCanonical(t, spec)
	const ttl = 300 * time.Millisecond
	_, ts := newDurableTestServer(t, ttl)
	id := submitDispatch(t, ts, spec)

	w := NewWorker(WorkerOptions{
		BaseURL: ts.URL, Campaign: id, Name: "slow", Parallel: 1, leaseBatch: 2,
		runJob: func(ctx context.Context, ws *workspace, job Job, test *litmus.Test, spec Spec) (*JobResult, error) {
			if err := sleepCtx(ctx, ttl+ttl/6); err != nil {
				return nil, err
			}
			return runJob(ctx, ws, job, test, spec)
		},
	})
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if state := pollState(t, ts, id, 30*time.Second); state != StateDone {
		t.Fatalf("campaign ended %q", state)
	}
	if got := fetchCanonical(t, ts, id); !bytes.Equal(got, want) {
		t.Fatalf("slow-job fleet diverged from serial run:\nserial:\n%s\nfleet:\n%s", want, got)
	}
	metrics := getJSON(t, ts.URL+"/campaigns/"+id, http.StatusOK)["metrics"].(map[string]any)
	for _, key := range []string{"lease_requeues", "results_fenced"} {
		if got := metrics[key].(float64); got != 0 {
			t.Fatalf("%s = %v, want 0: a held lease expired: %v", key, got, metrics)
		}
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestInProcessNextAllocFree pins that the in-process exchange's lease
// half allocates nothing: an executor that reports a job and takes the
// next grant refills its own LeaseResponse. Here each exchange hands its
// grant back and leases it again, so the merge path (whose map entries
// the campaign keeps) is out of the measurement.
func TestInProcessNextAllocFree(t *testing.T) {
	camp, err := New(smallSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDispatcher(camp, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	req := CompleteRequest{Worker: "local-0", Lease: 1}
	var next LeaseResponse
	d.complete(req, &next)
	if len(next.Grants) != 1 {
		t.Fatalf("first exchange granted %d jobs, want 1", len(next.Grants))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		g := next.Grants[0]
		req.Released = append(req.Released[:0], LeaseRef{JobID: g.Job.ID, LeaseID: g.LeaseID})
		resp := d.complete(req, &next)
		if resp.Requeued != 1 || resp.Next != &next || len(next.Grants) != 1 {
			t.Fatalf("exchange = %+v, want the grant released and re-leased into next", resp)
		}
	})
	if allocs != 0 {
		t.Fatalf("in-process release+lease exchange allocates %v times, want 0", allocs)
	}
}

// v1Upload writes the v1 upload layout — the v3 one without Lease — so
// the server's refusal of an old worker can be pinned.
type v1Upload CompleteRequest

func (u *v1Upload) AppendWireBody(w *harness.WireWriter) {
	w.PutUvarint(1)
	w.PutString(u.Worker)
	w.PutUvarint(uint64(len(u.Results)))
	var scratch []string
	for _, wr := range u.Results {
		w.PutVarint(wr.LeaseID)
		appendJobResult(w, wr.Result, &scratch)
	}
	w.PutUvarint(0) // failures
	appendLeaseRefs(w, u.Released)
	appendLeaseRefs(w, u.Heartbeat)
}

func (u *v1Upload) DecodeWireBody(*harness.WireReader) error {
	return errors.New("v1Upload is encode-only")
}

// TestCompleteRefusesV1Upload posts an upload a v1 worker would send: it
// is refused at its version field with a 400 naming both versions — not
// misread as a truncated v3 body — and merges nothing; the same results
// in a v3 upload then merge.
func TestCompleteRefusesV1Upload(t *testing.T) {
	spec := fleetSpec(t)
	_, ts := newTestServer(t)
	id := submitDispatch(t, ts, spec)
	req := leasedUpload(t, ts, id, spec, "old")

	v1 := harness.EncodeWireBinary(nil, (*v1Upload)(&req))
	var decoded CompleteRequest
	if err := harness.DecodeWireBinary(v1, &decoded, 0); err == nil || err.Error() != "protocol version 1, want 3" {
		t.Fatalf("decoding a v1 upload = %v, want the version refusal", err)
	}
	resp, err := http.Post(ts.URL+"/campaigns/"+id+"/complete", harness.WireContentTypeBinary, bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "protocol version 1, want 3") {
		t.Fatalf("v1 upload = %d %s, want 400 protocol version 1, want 3", resp.StatusCode, body)
	}
	if done := dispatchDone(t, ts, id); done != 0 {
		t.Fatalf("refused v1 upload completed %d job(s)", done)
	}
	if code, cr := postUpload(t, ts, id, harness.WireContentTypeBinary, harness.EncodeWireBinary(nil, &req)); code != http.StatusOK || cr.Merged != 1 {
		t.Fatalf("v3 re-send = %d, merged %d; want 200, 1", code, cr.Merged)
	}
}

// TestWorkerRefusesOtherVersionAtCorpus pins where a version mismatch
// stops a worker: at the corpus fetch, its first call, with an error
// naming both versions, and before any upload is made.
func TestWorkerRefusesOtherVersionAtCorpus(t *testing.T) {
	var uploads atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/corpus") {
			json.NewEncoder(w).Encode(CorpusResponse{Version: ProtocolVersion - 1})
			return
		}
		uploads.Add(1)
		http.Error(w, "unexpected call", http.StatusTeapot)
	}))
	defer ts.Close()
	w := NewWorker(WorkerOptions{BaseURL: ts.URL, Campaign: "c0001", Name: "new", Parallel: 1})
	err := w.Run(context.Background())
	want := fmt.Sprintf("server speaks protocol v%d, worker v%d", ProtocolVersion-1, ProtocolVersion)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run against an older server = %v, want %q", err, want)
	}
	if n := uploads.Load(); n != 0 {
		t.Fatalf("worker made %d calls past the corpus, want 0", n)
	}
}
