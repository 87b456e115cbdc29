package campaign

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"perple/internal/harness"
	"perple/internal/litmus"
)

// WorkerOptions configures one fleet worker.
type WorkerOptions struct {
	// BaseURL is the perple serve root, e.g. "http://host:8077".
	BaseURL string
	// Campaign is the dispatch-mode campaign id to work on.
	Campaign string
	// Name identifies this worker in lease accounting; default
	// "<hostname>-<pid>".
	Name string
	// Parallel is the number of jobs executed concurrently; 0 selects
	// GOMAXPROCS.
	Parallel int
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
	// leaseBatch, when positive, fixes the jobs per batch in place of
	// batchSize's rule, so a test can pin an exchange shape.
	leaseBatch int
}

// Worker is a fleet member: it pulls shard leases from a perple serve
// dispatch campaign, executes them with the same job-execution step
// (jobExec) as Campaign.Run's in-process executors, and uploads batched
// results; each batch's upload also leases a further batch, and runs
// while the next batch executes, so a worker holds about two batches of
// grants.
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

// Name is the worker's identity in lease accounting: WorkerOptions.Name,
// or its hostname-pid default.
func (w *Worker) Name() string { return w.opts.Name }

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
//
// Run keeps one batch of lookahead, so the exchange at a batch's end —
// upload, merge, WAL commit and the reply carrying the next grants —
// overlaps the next batch instead of stalling it: the first /lease call
// and every idle poll ask for two batches, and each upload asks for one
// more (none while draining). The worker holds at most one unstarted
// batch beyond the batch it runs. A batch is many shards (batchSize),
// so one upload and one WAL commit serve them all, and the reply is
// back before the next batch ends.
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

	// up starts with the first grants, whose reply names the lease TTL
	// its heartbeat cadence derives from. queue holds the grants leased
	// but not yet started; batch is the slice of it being run, and ran
	// reports a batch whose outcomes are staged but not yet shipped.
	// jobTime is the last batch's execution time per job.
	var (
		up           *uploader
		queue, batch []LeaseGrant
		ran          bool
		jobTime      time.Duration
	)
	defer func() {
		if up != nil {
			up.stop()
		}
	}()
	for {
		if err := ctx.Err(); err != nil {
			// Hard stop: abandon everything; the leases expire and requeue.
			return err
		}
		// Sync point — a batch is ready to ship, nothing is queued, or the
		// worker drains: collect the in-flight upload's reply (after a
		// batch of many shards, back by then) and queue the grants it
		// carries.
		if up != nil && (ran || len(queue) == 0 || w.draining.Load()) {
			next, done, err := up.wait()
			if err != nil || done {
				return err
			}
			queue = append(queue, next...)
		}
		// Read after the wait, so grants that arrived after Drain are
		// released, never run.
		draining := w.draining.Load()
		if ran || draining && len(queue) > 0 {
			// Ship the batch, leasing one more, and go on to the queued
			// batch at once. The queue holds the next batch, so the upload
			// leases what the batch after it lacks: a batch when sizes
			// hold steady, less when the size has shrunk and the queue
			// runs long. A draining worker instead hands every unstarted
			// grant back, without touching its retry budget, in an upload
			// that leases nothing.
			size := w.batchSize(up, jobTime)
			want := min(size, max(0, 2*size-len(queue)))
			if draining {
				up.release(queue)
				queue = queue[:0]
				want = 0
			}
			up.send(want)
			ran = false
			continue
		}
		if draining {
			return nil
		}
		if len(queue) == 0 {
			var lease LeaseResponse
			if err := w.post(ctx, "lease", LeaseRequest{Worker: w.opts.Name, Max: 2 * w.batchSize(up, jobTime)}, &lease); err != nil {
				return err
			}
			if lease.Done {
				return nil
			}
			if len(lease.Grants) == 0 {
				if err := w.idle(ctx, lease.WaitSec); err != nil {
					return err
				}
				continue
			}
			if up == nil {
				up = w.startUploader(ctx, time.Duration(lease.TTLSec*float64(time.Second)))
			}
			up.hold(lease.Grants)
			queue = append(queue, lease.Grants...)
		}
		n := min(w.batchSize(up, jobTime), len(queue))
		batch = append(batch[:0], queue[:n]...)
		queue = append(queue[:0], queue[n:]...)
		start := time.Now()
		w.runBatch(ctx, up, batch)
		jobTime = time.Since(start) / time.Duration(n)
		ran = true
	}
}

// defaultBatch is the jobs per batch of a worker whose shards are short
// next to its leases' heartbeat period. One upload and one WAL commit
// serve the whole batch, so a shard pays a 64th of an exchange instead
// of a stall at every sync point, and a batch of even sub-millisecond
// shards outlasts the exchange that overlaps it.
const defaultBatch = 64

// batchSize is the number of jobs in the next batch, and the Lease its
// upload asks for, given the last batch's execution time per job:
// defaultBatch, cut to half a heartbeat period of execution so a held
// lease ends before it is due an extension, and at least Parallel.
// Until a batch has been timed it is Parallel.
func (w *Worker) batchSize(up *uploader, jobTime time.Duration) int {
	if w.opts.leaseBatch > 0 {
		return w.opts.leaseBatch
	}
	if up == nil || jobTime <= 0 {
		return w.opts.Parallel
	}
	return max(w.opts.Parallel, min(defaultBatch, int(up.period/2/jobTime)))
}

// idle sleeps out an empty lease reply's poll hint. Jitter spreads idle
// fleet members out instead of stampeding the lease endpoint in
// lockstep; Drain cuts the sleep short so a signaled idle worker exits
// promptly.
func (w *Worker) idle(ctx context.Context, waitSec float64) error {
	wait := time.Duration(waitSec * float64(time.Second))
	if wait <= 0 {
		wait = 500 * time.Millisecond
	}
	t := time.NewTimer(wait/2 + w.jitter(wait/2))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-w.drainCh:
	case <-t.C:
	}
	return nil
}

// runBatch executes one batch on the worker's slots and stages each
// outcome on up. Once the worker drains, unstarted grants are staged as
// released; a hard stop (ctx) abandons them.
func (w *Worker) runBatch(ctx context.Context, up *uploader, batch []LeaseGrant) {
	var wg sync.WaitGroup
	defer wg.Wait()
	for i, grant := range batch {
		if w.draining.Load() {
			up.release(batch[i:])
			return
		}
		var ws *workspace
		select {
		case ws = <-w.slots:
		case <-ctx.Done():
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { w.slots <- ws }()
			up.stage(w.exec(ctx, ws, grant))
		}()
	}
}

// uploader is a Worker's single exchange goroutine for the life of Run.
// It ships completed batches in order — each upload staged by send, its
// reply collected by wait before the next send — and heartbeats the
// leases the worker holds on the lease-TTL/3 cadence. A held lease rides
// an upload's Heartbeat only once that period has passed since its grant
// or last extension: every piggybacked ref costs the dispatcher a WAL
// extend record, and a shard's lease normally ends well inside it.
type uploader struct {
	w      *Worker
	ctx    context.Context
	cancel context.CancelFunc
	period time.Duration

	shipCh  chan struct{} // send → goroutine: ship the staged upload
	replyCh chan error    // goroutine → wait: the upload's outcome
	doneCh  chan struct{} // closed when the goroutine exits
	// inflight reports a sent upload whose reply wait has not collected;
	// only Run's goroutine reads or writes it.
	inflight bool

	// Between send and wait the goroutine owns out, resp and encBuf.
	out    CompleteRequest
	resp   CompleteResponse
	encBuf []byte // reused PWB1 encode buffer

	mu sync.Mutex
	// pending collects the running batch's outcomes and releases.
	pending CompleteRequest
	// held is every lease the worker holds — running, queued, or in an
	// unacknowledged upload — with when it was granted or last extended.
	held map[int64]heldLease
}

type heldLease struct {
	ref   LeaseRef
	since time.Time
}

// startUploader starts the uploader for a server whose leases last ttl.
func (w *Worker) startUploader(ctx context.Context, ttl time.Duration) *uploader {
	period := w.opts.HeartbeatEvery
	if period <= 0 {
		period = ttl / 3
	}
	if period <= 0 {
		period = 10 * time.Second
	}
	u := &uploader{
		w: w, period: period,
		shipCh:  make(chan struct{}, 1),
		replyCh: make(chan error, 1),
		doneCh:  make(chan struct{}),
		out:     CompleteRequest{Version: ProtocolVersion, Worker: w.opts.Name},
		pending: CompleteRequest{Version: ProtocolVersion, Worker: w.opts.Name},
		held:    make(map[int64]heldLease),
	}
	u.ctx, u.cancel = context.WithCancel(ctx)
	go u.loop()
	return u
}

func (u *uploader) loop() {
	defer close(u.doneCh)
	tick := time.NewTicker(u.period)
	defer tick.Stop()
	for {
		select {
		case <-u.ctx.Done():
			return
		case <-u.shipCh:
			u.replyCh <- u.ship()
		case <-tick.C:
			u.heartbeat()
		}
	}
}

// stop ends the goroutine, abandoning an upload still in flight.
func (u *uploader) stop() {
	u.cancel()
	<-u.doneCh
}

// hold adds fresh grants to the held set.
func (u *uploader) hold(grants []LeaseGrant) {
	now := time.Now()
	u.mu.Lock()
	for _, g := range grants {
		u.held[g.LeaseID] = heldLease{ref: LeaseRef{JobID: g.Job.ID, LeaseID: g.LeaseID}, since: now}
	}
	u.mu.Unlock()
}

// stage records one executed job's outcome; an aborted run (neither
// result nor failure) records nothing.
func (u *uploader) stage(r WorkerResult, f *WorkerFailure) {
	u.mu.Lock()
	switch {
	case r.Result != nil:
		u.pending.Results = append(u.pending.Results, r)
	case f != nil:
		u.pending.Failures = append(u.pending.Failures, *f)
	}
	u.mu.Unlock()
}

// release stages unstarted grants to be handed back.
func (u *uploader) release(grants []LeaseGrant) {
	u.mu.Lock()
	for _, g := range grants {
		u.pending.Released = append(u.pending.Released, LeaseRef{JobID: g.Job.ID, LeaseID: g.LeaseID})
	}
	u.mu.Unlock()
}

// send ships everything staged, asking for lease new grants, and
// returns at once; wait collects the reply. The previous reply must
// have been collected.
func (u *uploader) send(lease int) {
	now := time.Now()
	u.mu.Lock()
	u.out, u.pending = u.pending, u.out
	clear(u.pending.Results) // drop the acknowledged results
	u.pending.Results = u.pending.Results[:0]
	u.pending.Failures = u.pending.Failures[:0]
	u.pending.Released = u.pending.Released[:0]
	for _, r := range u.out.Results {
		delete(u.held, r.LeaseID)
	}
	for _, f := range u.out.Failures {
		delete(u.held, f.LeaseID)
	}
	for _, ref := range u.out.Released {
		delete(u.held, ref.LeaseID)
	}
	u.out.Heartbeat = u.dueLocked(u.out.Heartbeat[:0], now)
	u.mu.Unlock()
	u.out.Lease = lease
	u.inflight = true
	u.shipCh <- struct{}{} // buffered: at most one upload is ever out
}

// wait collects the in-flight upload's reply, if one is out: the grants
// it carries (valid until the next send), whether the server reports
// the campaign done, and the upload's error.
func (u *uploader) wait() (next []LeaseGrant, done bool, err error) {
	if !u.inflight {
		return nil, false, nil
	}
	u.inflight = false
	select {
	case err = <-u.replyCh:
	case <-u.doneCh:
		// Run's ctx ended the goroutine before (or after) it replied.
		err = u.ctx.Err()
	}
	if err != nil {
		return nil, false, err
	}
	if u.resp.Next != nil {
		next = u.resp.Next.Grants
	}
	return next, u.resp.Done, nil
}

// ship posts the staged upload as PWB1 with retry/backoff. A retried
// upload after a lost response is safe: the server's completion fence
// deduplicates.
func (u *uploader) ship() error {
	sent := time.Now()
	// The reply decodes into the last one's structs, grant slice
	// included; reset them first, since a field the server omits
	// (omitempty) would otherwise keep its old value.
	next := u.resp.Next
	if next != nil {
		*next = LeaseResponse{Grants: next.Grants[:0]}
	}
	u.resp = CompleteResponse{Next: next}
	u.encBuf = harness.EncodeWireBinary(u.encBuf[:0], &u.out)
	w := u.w
	err := w.retry(u.ctx, func() (*http.Response, error) {
		req, err := http.NewRequestWithContext(u.ctx, http.MethodPost, w.url("complete"), bytes.NewReader(u.encBuf))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", harness.WireContentTypeBinary)
		return w.opts.Client.Do(req)
	}, &u.resp)
	if err != nil {
		return err
	}
	u.extend(u.out.Heartbeat, sent)
	if u.resp.Next != nil {
		// Queued grants are held from the moment they arrive, not from
		// when Run collects them: the tick must cover them meanwhile.
		u.hold(u.resp.Next.Grants)
	}
	return nil
}

// heartbeat extends the held leases that are due on a plain
// /heartbeat. Best-effort: a lost heartbeat only shortens the lease
// margin, and the server fences any fallout.
func (u *uploader) heartbeat() {
	now := time.Now()
	u.mu.Lock()
	due := u.dueLocked(nil, now)
	u.mu.Unlock()
	if len(due) == 0 {
		return
	}
	var hr HeartbeatResponse
	if u.w.post(u.ctx, "heartbeat", HeartbeatRequest{Worker: u.w.opts.Name, Leases: due}, &hr) == nil {
		u.extend(due, now)
	}
}

// dueLocked appends to dst, in job order, the held leases not granted
// or extended within the last period. Caller holds u.mu.
func (u *uploader) dueLocked(dst []LeaseRef, now time.Time) []LeaseRef {
	for _, h := range u.held {
		if now.Sub(h.since) >= u.period {
			dst = append(dst, h.ref)
		}
	}
	slices.SortFunc(dst, func(a, b LeaseRef) int { return cmp.Compare(a.JobID, b.JobID) })
	return dst
}

// extend restamps refs still held as extended at t, when the request
// carrying them was built.
func (u *uploader) extend(refs []LeaseRef, t time.Time) {
	u.mu.Lock()
	for _, ref := range refs {
		if h, ok := u.held[ref.LeaseID]; ok {
			h.since = t
			u.held[ref.LeaseID] = h
		}
	}
	u.mu.Unlock()
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
