package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"perple/internal/harness"
	"perple/internal/litmus"
)

// WorkerOptions configures one fleet worker.
type WorkerOptions struct {
	// BaseURL is the perple-serve root, e.g. "http://host:8077".
	BaseURL string
	// Campaign is the dispatch-mode campaign id to work on.
	Campaign string
	// Name identifies this worker in lease accounting; default
	// "<hostname>-<pid>".
	Name string
	// Parallel is the number of jobs executed concurrently; 0 selects
	// GOMAXPROCS.
	Parallel int
	// LeaseBatch is the number of jobs pulled per lease — the first
	// /lease call, an idle poll, or the batch's final upload, which asks
	// for the next batch; 0 selects Parallel (keep every executor busy
	// with one round trip).
	LeaseBatch int
	// Wire names the result-upload codec. PWB1 is the only one: "",
	// "auto" and "binary" all select it, and any other value makes Run
	// fail.
	Wire string
	// Client is the HTTP client; nil selects a fresh one with keep-alives
	// and an idle-connection pool sized to the worker's parallelism, so a
	// batch's lease/upload/heartbeat exchanges reuse warm connections.
	Client *http.Client
	// HeartbeatEvery overrides the heartbeat period; 0 selects a third of
	// the server's lease TTL.
	HeartbeatEvery time.Duration
	// MaxAttempts bounds retries per HTTP call (network errors and 5xx);
	// 0 selects 5.
	MaxAttempts int
	// BackoffBase is the first retry delay, doubling per attempt up to
	// 32x; 0 selects 200ms.
	BackoffBase time.Duration
	// BreakerThreshold is the consecutive-failure count that opens the
	// client's circuit breaker; 0 selects DefaultBreakerThreshold.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit holds requests off; 0
	// selects DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// RecoveryWindow, when positive, keeps transport-class retries
	// (network errors and 5xx) going until this much time has passed,
	// even past MaxAttempts — sized to how long a dispatcher restart
	// takes, so a worker rides out a server failover instead of exiting
	// with its leases mid-flight. 4xx responses still fail immediately.
	RecoveryWindow time.Duration
	// OnJobDone observes every locally completed job result, before
	// upload.
	OnJobDone func(*JobResult)

	// runJob overrides job execution (tests inject hangs and failures);
	// nil selects the real harness-backed runner.
	runJob jobFunc
}

// Worker is a fleet member: it pulls shard leases from a perple-serve
// dispatch campaign, executes them with the same job-execution step
// (jobExec) as Campaign.Run's in-process executors, and uploads batched
// results; each batch's final upload also leases the next batch.
// Because shard seeds are identity-derived and merging is
// order-invariant, any number of workers — joining, crashing, being
// replaced — drive the campaign to the same final bytes as a local run.
// The embedded jobExec's JobsCompleted and JobsFailed count this
// worker's own executions.
type Worker struct {
	jobExec

	// slots holds one workspace per Parallel slot: a job runs on the slot
	// it takes and hands it back, so shards reuse their slot's runners
	// and buffers across jobs and lease batches.
	slots chan *workspace

	opts      WorkerOptions
	brk       *breaker
	draining  atomic.Bool
	drainOnce sync.Once
	drainCh   chan struct{} // closed by Drain; cuts idle poll sleeps short

	// upMu serializes uploads so encBuf — the reused binary encode
	// buffer — is never rewritten while a retry is still reading it.
	upMu   sync.Mutex
	encBuf []byte

	// rng drives backoff and poll-wait jitter. Seeding it from the
	// worker's name (not time or a process-global stream) keeps a fleet's
	// members desynchronized from each other yet individually
	// reproducible.
	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewWorker applies option defaults.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		opts.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opts.Parallel <= 0 {
		opts.Parallel = runtime.GOMAXPROCS(0)
	}
	if opts.LeaseBatch <= 0 {
		opts.LeaseBatch = opts.Parallel
	}
	if opts.Client == nil {
		opts.Client = &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				Proxy:               http.ProxyFromEnvironment,
				MaxIdleConns:        100,
				MaxIdleConnsPerHost: opts.Parallel + 4,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 5
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 200 * time.Millisecond
	}
	if opts.runJob == nil {
		opts.runJob = runJob
	}
	h := fnv.New64a()
	io.WriteString(h, opts.Name)
	slots := make(chan *workspace, opts.Parallel)
	for i := 0; i < opts.Parallel; i++ {
		slots <- new(workspace)
	}
	return &Worker{
		jobExec: jobExec{run: opts.runJob, onDone: opts.OnJobDone},
		slots:   slots,
		opts:    opts,
		brk:     newBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
		drainCh: make(chan struct{}),
		rng:     rand.New(rand.NewSource(int64(h.Sum64() &^ (1 << 63)))),
	}
}

// jitter draws a uniform duration in [0, d] from the worker's own
// stream.
func (w *Worker) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	w.rngMu.Lock()
	defer w.rngMu.Unlock()
	return time.Duration(w.rng.Int63n(int64(d) + 1))
}

// Drain asks the worker to stop pulling new leases: in-flight jobs
// finish and upload, unstarted grants are released back to the queue,
// and Run returns nil. Cancelling Run's context instead is the hard
// stop — nothing is uploaded and the held leases expire server-side.
func (w *Worker) Drain() {
	w.draining.Store(true)
	w.drainOnce.Do(func() { close(w.drainCh) })
}

// Run works the campaign until the server reports it done, Drain is
// called, or ctx is cancelled.
func (w *Worker) Run(ctx context.Context) error {
	switch w.opts.Wire {
	case "", "auto", "binary":
	default:
		return fmt.Errorf("campaign: unknown wire codec %q (want auto or binary)", w.opts.Wire)
	}
	corpus, err := w.fetchCorpus(ctx)
	if err != nil {
		return err
	}
	if corpus.Version != ProtocolVersion {
		return fmt.Errorf("campaign: server speaks protocol v%d, worker v%d", corpus.Version, ProtocolVersion)
	}
	w.spec = corpus.Spec
	w.tests = make(map[string]*litmus.Test, len(corpus.Tests))
	for _, ct := range corpus.Tests {
		t, err := litmus.Parse(ct.Source)
		if err != nil {
			return fmt.Errorf("campaign: parsing corpus test %q: %w", ct.Name, err)
		}
		w.tests[ct.Name] = t
	}

	// lease is the batch to run next: /lease answers it for the first
	// batch and after an idle poll, every other batch arrives with the
	// previous batch's final upload. nil means ask /lease.
	var lease *LeaseResponse
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if lease == nil {
			if w.draining.Load() {
				return nil
			}
			lease = new(LeaseResponse)
			if err := w.post(ctx, "lease", LeaseRequest{Worker: w.opts.Name, Max: w.opts.LeaseBatch}, lease); err != nil {
				return err
			}
		}
		if lease.Done {
			return nil
		}
		if len(lease.Grants) == 0 {
			wait := time.Duration(lease.WaitSec * float64(time.Second))
			if wait <= 0 {
				wait = 500 * time.Millisecond
			}
			// Jitter the poll so idle fleet members spread out instead of
			// stampeding the lease endpoint in lockstep. Drain interrupts
			// the sleep so a signaled idle worker exits promptly.
			wait = wait/2 + w.jitter(wait/2)
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-w.drainCh:
				t.Stop()
				return nil
			case <-t.C:
			}
			lease = nil
			continue
		}
		next, done, err := w.runBatch(ctx, lease)
		if err != nil || done {
			return err
		}
		lease = next
	}
}

// runBatch executes one lease batch and uploads the outcome. Unless the
// worker is draining, the final upload asks for the next batch, which
// runBatch returns (nil when the upload got none). done reports that the
// server says the campaign finished.
func (w *Worker) runBatch(ctx context.Context, lease *LeaseResponse) (next *LeaseResponse, done bool, err error) {
	ttl := time.Duration(lease.TTLSec * float64(time.Second))
	up := newBatchUpload(w, lease.Grants)
	flStop := w.startFlusher(ctx, up, ttl)
	defer flStop()

	var (
		wg       sync.WaitGroup
		abandons bool
	)
	for _, grant := range lease.Grants {
		if w.draining.Load() {
			// Graceful drain: hand unstarted grants back without touching
			// their retry budget.
			up.addReleased(LeaseRef{JobID: grant.Job.ID, LeaseID: grant.LeaseID})
			continue
		}
		var ws *workspace
		select {
		case ws = <-w.slots:
		case <-ctx.Done():
			abandons = true
		}
		if abandons {
			break
		}
		wg.Add(1)
		go func(grant LeaseGrant) {
			defer wg.Done()
			defer func() { w.slots <- ws }()
			switch r, f := w.exec(ctx, ws, grant); {
			case r.Result != nil:
				up.addResult(r)
			case f != nil:
				up.addFailure(*f)
			}
		}(grant)
	}
	wg.Wait()
	flStop()
	if err := ctx.Err(); err != nil {
		// Hard stop: abandon the batch; the leases expire and requeue.
		return nil, false, err
	}
	if err := up.err(); err != nil {
		return nil, false, err
	}
	// Final flush ships whatever the ticker hasn't already streamed out
	// and, unless draining, leases the next batch in the same exchange.
	want := w.opts.LeaseBatch
	if w.draining.Load() {
		want = 0
	}
	if next, err = up.flush(ctx, want); err != nil {
		return nil, false, err
	}
	return next, up.done.Load(), nil
}

// batchUpload accumulates one lease batch's outcomes and streams them to
// the dispatcher in sub-batches: each flush ships everything pending and
// carries heartbeats for the leases the worker still holds, so a long
// batch's uploads double as its lease extensions. outstanding tracks
// grants not yet acknowledged by a completed upload; a flush that dies
// retryably leaves them tracked, and the whole batch aborts via
// firstErr.
type batchUpload struct {
	w    *Worker
	done atomic.Bool

	mu          sync.Mutex
	pending     CompleteRequest
	outstanding map[int64]LeaseRef // leaseID → ref, dropped once upload-acked
	firstErr    error
}

func newBatchUpload(w *Worker, grants []LeaseGrant) *batchUpload {
	up := &batchUpload{
		w:           w,
		pending:     CompleteRequest{Version: ProtocolVersion, Worker: w.opts.Name},
		outstanding: make(map[int64]LeaseRef, len(grants)),
	}
	for _, g := range grants {
		up.outstanding[g.LeaseID] = LeaseRef{JobID: g.Job.ID, LeaseID: g.LeaseID}
	}
	return up
}

func (u *batchUpload) addResult(r WorkerResult) {
	u.mu.Lock()
	u.pending.Results = append(u.pending.Results, r)
	u.mu.Unlock()
}

func (u *batchUpload) addFailure(f WorkerFailure) {
	u.mu.Lock()
	u.pending.Failures = append(u.pending.Failures, f)
	u.mu.Unlock()
}

func (u *batchUpload) addReleased(ref LeaseRef) {
	u.mu.Lock()
	u.pending.Released = append(u.pending.Released, ref)
	u.mu.Unlock()
}

func (u *batchUpload) setErr(err error) {
	u.mu.Lock()
	if u.firstErr == nil {
		u.firstErr = err
	}
	u.mu.Unlock()
}

func (u *batchUpload) err() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.firstErr
}

// flush uploads everything pending, piggybacking heartbeats for the
// still-held leases, and with lease > 0 asks for that many new grants,
// which it returns. With nothing to upload and no grants wanted it
// degrades to a plain heartbeat. Callers serialize flushes (ticker
// goroutine, then the final call after it stops).
func (u *batchUpload) flush(ctx context.Context, lease int) (*LeaseResponse, error) {
	u.mu.Lock()
	req := u.pending
	u.pending = CompleteRequest{Version: ProtocolVersion, Worker: u.w.opts.Name}
	consumed := make(map[int64]bool, len(req.Results)+len(req.Failures)+len(req.Released))
	for _, r := range req.Results {
		consumed[r.LeaseID] = true
	}
	for _, f := range req.Failures {
		consumed[f.LeaseID] = true
	}
	for _, ref := range req.Released {
		consumed[ref.LeaseID] = true
	}
	live := make([]LeaseRef, 0, len(u.outstanding))
	for id, ref := range u.outstanding {
		if !consumed[id] {
			live = append(live, ref)
		}
	}
	u.mu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].JobID < live[j].JobID })

	if len(req.Results)+len(req.Failures)+len(req.Released) == 0 && lease == 0 {
		if len(live) > 0 {
			// Best-effort: a lost heartbeat only shortens the lease margin,
			// and the server fences any fallout.
			var hr HeartbeatResponse
			_ = u.w.post(ctx, "heartbeat", HeartbeatRequest{Worker: u.w.opts.Name, Leases: live}, &hr)
		}
		return nil, nil
	}
	req.Heartbeat = live
	req.Lease = lease
	var resp CompleteResponse
	if err := u.w.uploadComplete(ctx, &req, &resp); err != nil {
		return nil, err
	}
	u.mu.Lock()
	for id := range consumed {
		delete(u.outstanding, id)
	}
	u.mu.Unlock()
	if resp.Done {
		u.done.Store(true)
	}
	return resp.Next, nil
}

// startFlusher streams pending outcomes (and lease extensions) on the
// heartbeat cadence until the returned stop function is called
// (idempotent). A flush that fails after retries records the error and
// stops streaming; runBatch surfaces it once the executors finish.
func (w *Worker) startFlusher(ctx context.Context, up *batchUpload, ttl time.Duration) func() {
	period := w.opts.HeartbeatEvery
	if period <= 0 {
		period = ttl / 3
	}
	if period <= 0 {
		period = 10 * time.Second
	}
	flCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-flCtx.Done():
				return
			case <-tick.C:
				if _, err := up.flush(flCtx, 0); err != nil {
					if flCtx.Err() == nil {
						up.setErr(err)
					}
					return
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			cancel()
			wg.Wait()
		})
	}
}

// fetchCorpus downloads the campaign's spec and test sources.
func (w *Worker) fetchCorpus(ctx context.Context) (*CorpusResponse, error) {
	var corpus CorpusResponse
	err := w.retry(ctx, func() (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url("corpus"), nil)
		if err != nil {
			return nil, err
		}
		return w.opts.Client.Do(req)
	}, &corpus)
	if err != nil {
		return nil, err
	}
	return &corpus, nil
}

// post sends a JSON request body and decodes the JSON response with
// retry/backoff.
func (w *Worker) post(ctx context.Context, endpoint string, body any, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return w.retry(ctx, func() (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url(endpoint), bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return w.opts.Client.Do(req)
	}, out)
}

// uploadComplete encodes the batched results as PWB1 into the worker's
// reused buffer and posts them with retry/backoff. A retried upload after a lost response is
// safe: the server's completion fence deduplicates. upMu both serializes
// the encode buffer and keeps one worker's uploads sequential.
func (w *Worker) uploadComplete(ctx context.Context, creq *CompleteRequest, out *CompleteResponse) error {
	w.upMu.Lock()
	defer w.upMu.Unlock()
	w.encBuf = harness.EncodeWireBinary(w.encBuf[:0], creq)
	return w.retry(ctx, func() (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url("complete"), bytes.NewReader(w.encBuf))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", harness.WireContentTypeBinary)
		return w.opts.Client.Do(req)
	}, out)
}

func (w *Worker) url(endpoint string) string {
	return fmt.Sprintf("%s/campaigns/%s/%s", w.opts.BaseURL, w.opts.Campaign, endpoint)
}

// retry runs one HTTP exchange with exponential backoff on transport
// errors, 5xx responses, and undecodable response bodies (bytes damaged
// in flight); 4xx responses fail immediately (the request is wrong, not
// the network). Every outcome feeds the worker's circuit breaker, and
// an open circuit is waited out before the next attempt — attempts are
// spent on the server, not on a cooldown we already know about.
func (w *Worker) retry(ctx context.Context, do func() (*http.Response, error), out any) error {
	backoff := w.opts.BackoffBase
	// A recovery window extends transport-class retries past MaxAttempts
	// until the deadline passes — long enough to span a dispatcher
	// restart, so a failover costs the worker backoff time, not its
	// leases.
	var deadline time.Time
	if w.opts.RecoveryWindow > 0 {
		deadline = time.Now().Add(w.opts.RecoveryWindow)
	}
	var lastErr error
	attempt := 0
	for ; attempt < w.opts.MaxAttempts || (!deadline.IsZero() && time.Now().Before(deadline)); attempt++ {
		if attempt > 0 {
			// Full jitter keeps a rebooting fleet from thundering back in
			// sync.
			d := backoff/2 + w.jitter(backoff/2)
			if err := sleepCtx(ctx, d); err != nil {
				return err
			}
			if backoff < 32*w.opts.BackoffBase {
				backoff *= 2
			}
		}
		if hold := w.brk.waitTime(time.Now()); hold > 0 {
			if err := sleepCtx(ctx, hold); err != nil {
				return err
			}
		}
		resp, err := do()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.brk.failure(time.Now())
			lastErr = err
			continue
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		resp.Body.Close()
		if err != nil {
			w.brk.failure(time.Now())
			lastErr = err
			continue
		}
		switch {
		case resp.StatusCode >= 500:
			w.brk.failure(time.Now())
			lastErr = fmt.Errorf("campaign: server error %s: %s", resp.Status, firstLine(body))
			continue
		case resp.StatusCode >= 400:
			w.brk.success()
			return fmt.Errorf("campaign: %s: %s", resp.Status, firstLine(body))
		}
		w.brk.success()
		if out == nil {
			return nil
		}
		if err := json.Unmarshal(body, out); err != nil {
			// A 200 with undecodable JSON is a damaged body, not a protocol
			// disagreement: retry. Uploads stay safe to re-send — the server
			// dedupes by lease nonce.
			lastErr = fmt.Errorf("campaign: decoding response: %w", err)
			continue
		}
		return nil
	}
	return fmt.Errorf("campaign: giving up after %d attempts: %w", attempt, lastErr)
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// sleepCtx sleeps or returns early with ctx's error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
