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
	"sync"
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
	// and an idle-connection pool sized to the worker's parallelism, so
	// the worker's uploads reuse warm connections.
	Client *http.Client
	// MaxAttempts bounds retries per HTTP call (network errors and 5xx);
	// 0 selects 5.
	MaxAttempts int
	// BackoffBase is the first retry delay, doubling per attempt up to
	// 32x; 0 selects 200ms.
	BackoffBase time.Duration
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

	opts      WorkerOptions
	drainOnce sync.Once
	drainCh   chan struct{} // closed by Drain

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
	return &Worker{
		jobExec: jobExec{run: opts.runJob, onDone: opts.OnJobDone},
		opts:    opts,
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
func (w *Worker) Drain() { w.drainOnce.Do(func() { close(w.drainCh) }) }

// Run works the campaign until the server reports it done, Drain is
// called, or ctx is cancelled.
//
// Run is an event loop that carries out what its pipeline decides: one
// exchange goroutine makes the calls, and Parallel slot goroutines run
// the jobs, each on a workspace of its own, so shards reuse their
// slot's runners and buffers across jobs and batches.
func (w *Worker) Run(ctx context.Context) error {
	switch w.opts.Wire {
	case "", "auto", "binary":
	default:
		return fmt.Errorf("campaign: unknown wire codec %q (want auto or binary)", w.opts.Wire)
	}
	select {
	case <-w.drainCh:
		return nil // drained before it began
	default:
	}
	var corpus CorpusResponse
	if err := w.retry(ctx, http.MethodGet, "corpus", "", nil, &corpus); err != nil {
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

	p := newPipeline(w.opts.Parallel, w.opts.leaseBatch)
	// No send blocks: at most one call, and Parallel jobs, are in flight.
	// Jobs run on ctx, so an uncancellable one spares the sim its polls.
	x := &exchanger{calls: make(chan *CompleteRequest, 1), replies: make(chan error, 1)}
	jobs := make(chan LeaseGrant, w.opts.Parallel)
	outcomes := make(chan outcome, w.opts.Parallel)
	runCtx, stop := context.WithCancel(ctx)
	var wg sync.WaitGroup
	var tick *time.Ticker // made once the period is known
	defer func() {
		stop() // abandon the call in flight
		if tick != nil {
			tick.Stop()
		}
		close(x.calls)
		close(jobs)
		wg.Wait()
	}()
	wg.Add(1 + w.opts.Parallel)
	go w.exchange(runCtx, &wg, x)
	for range w.opts.Parallel {
		go func(ws *workspace) {
			defer wg.Done()
			for g := range jobs {
				if runCtx.Err() == nil { // once Run stops, no job starts
					r, f := w.exec(ctx, ws, g)
					outcomes <- outcome{r, f}
				}
			}
		}(new(workspace))
	}

	s, drainCh := p.advance(time.Now(), step{}), w.drainCh
	var tickC <-chan time.Time
	for {
		for _, g := range s.start {
			jobs <- g
		}
		if s.call {
			x.calls <- &p.out
		}
		if s.stop {
			return s.err
		}
		if tick == nil && p.period > 0 {
			tick = time.NewTicker(p.period)
			tickC = tick.C
		}
		select {
		case <-ctx.Done():
			s = p.cancel(ctx.Err())
		case <-drainCh:
			drainCh, s = nil, p.drain(time.Now())
		case o := <-outcomes:
			s = p.finished(time.Now(), o.r, o.f)
		case err := <-x.replies:
			s = p.replied(time.Now(), x.resp.Next, x.resp.Done, err)
		case now := <-tickC:
			s = p.tick(now)
		}
	}
}

// outcome is one finished job's report.
type outcome struct {
	r WorkerResult
	f *WorkerFailure
}

// exchanger is the state of Run's one exchange goroutine (exchange).
// From an upload until its reply the goroutine owns the buffers — the
// upload, its encoding, and the decoded reply, whose grant slice the
// next upload reuses.
type exchanger struct {
	calls   chan *CompleteRequest
	replies chan error
	resp    CompleteResponse
	encBuf  []byte
}

// exchange makes each upload handed on x.calls and replies with its
// error. An empty, not-Done reply to a lease-only upload is an idle
// poll's answer, and its hint is slept out before replying.
func (w *Worker) exchange(ctx context.Context, wg *sync.WaitGroup, x *exchanger) {
	defer wg.Done()
	for u := range x.calls {
		// The reply decodes into the last one's structs, grant slice
		// included; reset them first, since a field the server omits
		// (omitempty) would otherwise keep its old value.
		if next := x.resp.Next; next != nil {
			*next = LeaseResponse{Grants: next.Grants[:0]}
		}
		x.resp = CompleteResponse{Next: x.resp.Next}
		u.Version, u.Worker = ProtocolVersion, w.opts.Name
		x.encBuf = harness.EncodeWireBinary(x.encBuf[:0], u)
		err := w.retry(ctx, http.MethodPost, "complete", harness.WireContentTypeBinary, x.encBuf, &x.resp)
		if next := x.resp.Next; err == nil && u.leaseOnly() && !x.resp.Done && next != nil && len(next.Grants) == 0 {
			err = w.idle(ctx, next.WaitSec)
		}
		x.replies <- err
	}
}

// idle sleeps out an empty lease reply's poll hint. Jitter spreads idle
// fleet members out instead of stampeding the server in lockstep; Drain
// cuts the sleep short so a signaled idle worker exits promptly.
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

// retry makes one HTTP exchange with the campaign's endpoint, sending
// body (if any) as contentType and decoding the JSON response into out,
// with capped, jittered exponential backoff on transport errors, 5xx
// responses, and undecodable response bodies (bytes damaged in flight);
// 4xx responses fail immediately (the request is wrong, not the
// network). The backoff is the worker's one hold-off rule: its calls
// are made one at a time, so there are no concurrent callers to hold
// off besides.
func (w *Worker) retry(ctx context.Context, method, endpoint, contentType string, body []byte, out any) error {
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
		url := fmt.Sprintf("%s/campaigns/%s/%s", w.opts.BaseURL, w.opts.Campaign, endpoint)
		req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
		if err != nil {
			return err // a malformed URL: no retry mends it
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := w.opts.Client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err
			continue
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		switch {
		case resp.StatusCode >= 500:
			lastErr = fmt.Errorf("campaign: server error %s: %s", resp.Status, firstLine(body))
			continue
		case resp.StatusCode >= 400:
			return fmt.Errorf("campaign: %s: %s", resp.Status, firstLine(body))
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
