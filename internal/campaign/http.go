package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"perple/internal/harness"
)

// run states reported by the status endpoint.
const (
	StateRunning   = "running"
	StateDone      = "done"
	StateCancelled = "cancelled"
	StateFailed    = "failed"
)

// serverRun is one submitted campaign: the engine invocation plus the
// bookkeeping the HTTP surface reports. Local runs execute through
// Campaign.Run's in-process executors; dispatch runs hold a Dispatcher
// serving the lease endpoints instead.
type serverRun struct {
	id         string
	spec       Spec
	cancel     context.CancelFunc
	metrics    *Metrics
	started    time.Time
	dispatcher *Dispatcher          // nil for local runs
	axiom      map[string]TestAxiom // static target classification; read-only after submit

	// out is a local run's outcome, recorded by its goroutine; a dispatch
	// run's is read from its dispatcher (see outcome).
	mu  sync.Mutex
	out runOutcome

	// deadLetters quarantines jobs whose retry budget ran out, in arrival
	// order, so poison shards are visible on the status endpoint while the
	// campaign is still running — not only in the final report.
	failMu      sync.Mutex
	deadLetters []JobFailure

	// traceReports keeps the first few rendered trace-violation reports
	// (capped at harness.DefaultTraceReports) so an operator seeing the
	// trace_violations counter move can read the cycles on the status
	// endpoint without trawling worker logs. Counts stay exact in
	// Metrics; only the rendered reports are capped.
	traceMu      sync.Mutex
	traceReports []string
}

func (r *serverRun) collectTraceReports(jr *JobResult) {
	if len(jr.TraceReports) == 0 {
		return
	}
	r.traceMu.Lock()
	for _, rep := range jr.TraceReports {
		if len(r.traceReports) >= harness.DefaultTraceReports {
			break
		}
		r.traceReports = append(r.traceReports, rep)
	}
	r.traceMu.Unlock()
}

func (r *serverRun) traceReportList() []string {
	r.traceMu.Lock()
	out := append([]string(nil), r.traceReports...)
	r.traceMu.Unlock()
	return out
}

func (r *serverRun) addDeadLetter(f JobFailure) {
	r.failMu.Lock()
	r.deadLetters = append(r.deadLetters, f)
	r.failMu.Unlock()
}

func (r *serverRun) deadLetterList() []JobFailure {
	r.failMu.Lock()
	out := append([]JobFailure(nil), r.deadLetters...)
	r.failMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}

// runOutcome is how a run ended, as the status, list and results
// endpoints report it; state is StateRunning until then.
type runOutcome struct {
	state    string
	errMsg   string
	results  *Results
	finished time.Time
}

func finishedOutcome(res *Results, err error, cancelled bool, at time.Time) runOutcome {
	out := runOutcome{state: StateDone, results: res, finished: at}
	switch {
	case cancelled:
		out.state = StateCancelled
	case err != nil:
		out.state = StateFailed
	}
	if err != nil {
		out.errMsg = err.Error()
	}
	return out
}

func (r *serverRun) setFinished(res *Results, err error, cancelled bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.out = finishedOutcome(res, err, cancelled, time.Now())
}

// outcome reports how the run ended, or that it is still running. A
// dispatch run's outcome is read from its dispatcher once Finished is
// closed, so nothing waits on a dispatcher that never finishes.
func (r *serverRun) outcome() runOutcome {
	if d := r.dispatcher; d != nil {
		select {
		case <-d.Finished():
			res, err, cancelled := d.Outcome()
			return finishedOutcome(res, err, cancelled, d.finishedAt)
		default:
			return runOutcome{state: StateRunning}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.out
}

// Server exposes the campaign engine over HTTP. All handlers are
// stdlib-only; campaigns execute on background goroutines, so the
// health, metrics, and status endpoints answer while runs are in
// flight.
type Server struct {
	// CheckpointDir, when non-empty, gives every submitted campaign a
	// checkpoint file (<id>.json) under it.
	CheckpointDir string

	// CheckpointEvery is the floor of each campaign's doubling snapshot
	// interval (see Options.CheckpointEvery); 0 selects 64.
	CheckpointEvery int

	// CheckpointFS is the filesystem under checkpoint I/O; nil selects
	// the real one. The chaos tests inject fault-ridden implementations
	// here.
	CheckpointFS CheckpointFS

	// LeaseTTL is the dispatch-mode lease duration; 0 selects
	// DefaultLeaseTTL.
	LeaseTTL time.Duration

	// WALDir, when non-empty, gives every dispatch-mode campaign a
	// write-ahead log (<id>.wal under it) so a server restart
	// reconstructs the exact lease ledger instead of re-leasing
	// everything in flight. Requires CheckpointDir.
	WALDir string

	// WALSyncEvery is the WAL group-commit cadence (see
	// Options.WALSyncEvery); 0 or 1 fsyncs every exchange that logged a
	// record.
	WALSyncEvery int

	mu   sync.Mutex
	runs map[string]*serverRun
	seq  int

	started time.Time
}

// NewServer returns an empty campaign server.
func NewServer() *Server {
	return &Server{runs: map[string]*serverRun{}, started: time.Now()}
}

// Handler builds the route table:
//
//	GET  /healthz                    liveness
//	GET  /metrics                    aggregate scheduler gauges (JSON, or
//	                                 Prometheus text when Accept asks for it)
//	POST /campaigns                  submit a spec, returns {"id": ...};
//	                                 ?mode=dispatch serves the jobs to
//	                                 workers instead of running them locally
//	GET  /campaigns                  list campaigns
//	GET  /campaigns/{id}             status + per-run metrics snapshot
//	GET  /campaigns/{id}/results     merged totals (409 until the run
//	                                 finishes); ?format=canonical returns
//	                                 the canonical result JSON document
//	POST /campaigns/{id}/cancel      abort a running campaign
//	GET  /campaigns/{id}/corpus      dispatch: spec + test sources
//	POST /campaigns/{id}/lease       dispatch: pull jobs
//	POST /campaigns/{id}/heartbeat   dispatch: extend leases
//	POST /campaigns/{id}/complete    dispatch: upload results (PWB1)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /campaigns/{id}/results", s.handleResults)
	mux.HandleFunc("POST /campaigns/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /campaigns/{id}/corpus", s.handleCorpus)
	mux.HandleFunc("POST /campaigns/{id}/lease", s.handleLease)
	mux.HandleFunc("POST /campaigns/{id}/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /campaigns/{id}/complete", s.handleComplete)
	return mux
}

// CancelAll aborts every running campaign (used for graceful shutdown).
func (s *Server) CancelAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.runs {
		r.cancel()
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// bodyBufPool recycles upload read buffers and dispatch response encode
// buffers across requests, so the data path allocates payload-sized
// scratch once per pool miss instead of once per exchange.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSONCounted is writeJSON for the dispatch data path: the body is
// encoded compactly into a pooled buffer first, and the byte count and
// encode time land on the campaign's wire metrics.
func writeJSONCounted(w http.ResponseWriter, status int, v any, m *Metrics) {
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	start := time.Now()
	err := json.NewEncoder(buf).Encode(v)
	m.WireEncodeNs.Add(time.Since(start).Nanoseconds())
	if err != nil {
		bodyBufPool.Put(buf)
		writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	m.WireBytesSent.Add(int64(buf.Len()))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	bodyBufPool.Put(buf)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"uptime_sec": time.Since(s.started).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	runs := make([]*serverRun, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r) //perple:allow mergeorder runs feed order-invariant aggregation (snapshot sums, counters), never ordered output
	}
	s.mu.Unlock()

	var agg Snapshot
	var running int
	// Autoscaling gauges are computed at scrape time from the live lease
	// ledgers: how many leases are out across dispatch runs and how long
	// the oldest has been held. Queue depth (below, from the snapshot)
	// plus these two is what a fleet autoscaler needs — depth says add
	// workers, a growing oldest-lease age says one is stuck.
	var leasesActive int
	var oldestAge time.Duration
	for _, r := range runs {
		agg.Merge(r.metrics.Snapshot())
		if r.outcome().state == StateRunning {
			running++
		}
		if r.dispatcher != nil {
			active, age := r.dispatcher.LeaseGauges()
			leasesActive += active
			if age > oldestAge {
				oldestAge = age
			}
		}
	}
	if wantsPrometheus(req) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writePrometheus(w, len(runs), running, time.Since(s.started).Seconds(), leasesActive, oldestAge.Seconds(), agg)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"campaigns":            len(runs),
		"campaigns_running":    running,
		"uptime_sec":           time.Since(s.started).Seconds(),
		"leases_active":        leasesActive,
		"oldest_lease_age_sec": oldestAge.Seconds(),
		"scheduler":            agg,
	})
}

// wantsPrometheus content-negotiates /metrics: a JSON Accept keeps the
// expvar-style document, a text/plain or OpenMetrics Accept (what
// Prometheus scrapers send) selects the text exposition format. The
// default stays JSON for backward compatibility.
func wantsPrometheus(req *http.Request) bool {
	accept := req.Header.Get("Accept")
	if strings.Contains(accept, "application/json") {
		return false
	}
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

// writePrometheus renders the aggregate snapshot in Prometheus text
// exposition format, one family per scheduler gauge plus the dispatch
// counters (leases, requeues, heartbeats, fence drops, upload bytes).
func writePrometheus(w io.Writer, campaigns, running int, uptimeSec float64, leasesActive int, oldestLeaseAgeSec float64, agg Snapshot) {
	type metric struct {
		name, typ, help string
		value           float64
	}
	metrics := []metric{
		{"perple_campaigns", "gauge", "Campaigns known to this server.", float64(campaigns)},
		{"perple_campaigns_running", "gauge", "Campaigns currently running.", float64(running)},
		{"perple_uptime_seconds", "gauge", "Server uptime.", uptimeSec},
		{"perple_jobs", "gauge", "Total jobs across campaigns, restored included.", float64(agg.JobsTotal)},
		{"perple_jobs_completed_total", "counter", "Jobs merged into totals.", float64(agg.JobsCompleted)},
		{"perple_jobs_restored_total", "counter", "Jobs restored from checkpoints.", float64(agg.JobsRestored)},
		{"perple_jobs_failed_total", "counter", "Jobs whose retry budget ran out.", float64(agg.JobsFailed)},
		{"perple_retries_total", "counter", "Failed attempts re-queued.", float64(agg.Retries)},
		{"perple_queue_depth", "gauge", "Jobs waiting for a worker or lease.", float64(agg.QueueDepth)},
		{"perple_leases_active", "gauge", "Leases currently held by fleet workers.", float64(leasesActive)},
		{"perple_oldest_lease_age_seconds", "gauge", "Age of the longest-held live lease.", oldestLeaseAgeSec},
		{"perple_jobs_in_flight", "gauge", "Jobs executing or leased.", float64(agg.InFlight)},
		{"perple_iterations_total", "counter", "Simulated test iterations completed.", float64(agg.Iterations)},
		{"perple_traces_verified_total", "counter", "Witness traces checked against the memory model.", float64(agg.TracesVerified)},
		{"perple_trace_violations_total", "counter", "Witness traces the memory model rejected.", float64(agg.TraceViolations)},
		{"perple_trace_verify_ns_total", "counter", "Host nanoseconds spent verifying witness traces.", float64(agg.TraceVerifyNs)},
		{"perple_leases_granted_total", "counter", "Jobs handed to fleet workers.", float64(agg.LeasesGranted)},
		{"perple_lease_requeues_total", "counter", "Leases expired or failed and requeued.", float64(agg.LeaseRequeues)},
		{"perple_heartbeats_total", "counter", "Lease extensions from worker heartbeats.", float64(agg.Heartbeats)},
		{"perple_results_fenced_total", "counter", "Duplicate completions dropped by the fence.", float64(agg.ResultsFenced)},
		{"perple_duplicate_uploads_total", "counter", "Same-lease upload re-deliveries acknowledged idempotently.", float64(agg.DuplicateUploads)},
		{"perple_upload_bytes_total", "counter", "Compressed result payload bytes received.", float64(agg.UploadBytes)},
		{"perple_wire_bytes_recv_total", "counter", "Result-upload body bytes received, any codec.", float64(agg.WireBytesRecv)},
		{"perple_wire_bytes_sent_total", "counter", "Dispatch-endpoint response body bytes sent.", float64(agg.WireBytesSent)},
		{"perple_wire_encode_ns_total", "counter", "Host nanoseconds encoding dispatch responses.", float64(agg.WireEncodeNs)},
		{"perple_wire_decode_ns_total", "counter", "Host nanoseconds decoding result uploads.", float64(agg.WireDecodeNs)},
		{"perple_checkpoint_errors_total", "counter", "Snapshot writes that failed and were retried.", float64(agg.CheckpointErrors)},
		{"perple_checkpoint_recoveries_total", "counter", "Resumes recovered from the rotated last-good snapshot.", float64(agg.CheckpointRecoveries)},
		{"perple_wal_appends_total", "counter", "Lease-ledger transitions appended to write-ahead logs.", float64(agg.WALAppends)},
		{"perple_wal_append_errors_total", "counter", "WAL appends that failed and degraded the log.", float64(agg.WALAppendErrors)},
		{"perple_wal_fsync_ns_total", "counter", "Host nanoseconds spent fsyncing write-ahead logs.", float64(agg.WALFsyncNs)},
		{"perple_checkpoint_saves_total", "counter", "Checkpoint snapshots written (scheduled and closing).", float64(agg.CheckpointSaves)},
		{"perple_checkpoint_ns_total", "counter", "Host nanoseconds spent writing checkpoint snapshots.", float64(agg.CheckpointNs)},
		{"perple_checkpoint_bytes_total", "counter", "Checkpoint snapshot bytes written.", float64(agg.CheckpointBytes)},
		{"perple_wal_fsyncs_total", "counter", "Write-ahead log group-commit fsyncs (at most one per dispatcher exchange).", float64(agg.WALFsyncs)},
		{"perple_wal_replays_total", "counter", "Dispatcher recoveries that replayed a write-ahead log.", float64(agg.WALReplays)},
		{"perple_wal_compactions_total", "counter", "Write-ahead logs folded into a fresh checkpoint.", float64(agg.WALCompactions)},
		{"perple_wal_truncated_records_total", "counter", "Torn tail records dropped during WAL replay.", float64(agg.WALTruncatedRecords)},
		{"perple_allocs_total", "counter", "Heap allocations since metrics start (process-wide).", float64(agg.Allocs)},
		{"perple_alloc_bytes_total", "counter", "Heap bytes allocated since metrics start (process-wide).", float64(agg.AllocBytes)},
	}
	for _, m := range metrics {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", m.name, m.help, m.name, m.typ, m.name, m.value)
	}
	writePrometheusBatchHist(w, agg.WireBatch)
}

// writePrometheusBatchHist renders the upload batch-size distribution as
// a Prometheus histogram. The snapshot stores per-bucket counts; the
// exposition format wants cumulative ones, so accumulate while walking
// the buckets in upper-bound order.
func writePrometheusBatchHist(w io.Writer, h BatchHistSnapshot) {
	const name = "perple_wire_batch_size"
	fmt.Fprintf(w, "# HELP %s Results per completion upload.\n# TYPE %s histogram\n", name, name)
	var cum int64
	for i := 0; i <= len(batchBuckets); i++ {
		label := batchBucketLabel(i)
		cum += h.Buckets[label]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, label, cum)
	}
	fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, h.Sum, name, h.Count)
}

func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	spec, err := ParseSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	camp, err := New(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	mode := req.URL.Query().Get("mode")
	if mode != "" && mode != "local" && mode != "dispatch" {
		writeError(w, http.StatusBadRequest, "unknown mode %q (want local or dispatch)", mode)
		return
	}

	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("c%04d", s.seq)
	s.mu.Unlock()

	run := &serverRun{
		id:      id,
		spec:    camp.Spec,
		metrics: &Metrics{},
		started: time.Now(),
		out:     runOutcome{state: StateRunning},
		axiom:   camp.AxiomInfo(),
	}
	opts := Options{
		Metrics:         run.metrics,
		CheckpointEvery: s.CheckpointEvery,
		CheckpointFS:    s.CheckpointFS,
		OnJobFailed:     run.addDeadLetter,
		OnJobDone:       run.collectTraceReports,
	}
	if s.CheckpointDir != "" {
		opts.CheckpointPath = filepath.Join(s.CheckpointDir, id+".json")
	}

	if mode == "dispatch" {
		if s.WALDir != "" && s.CheckpointDir != "" {
			opts.WALPath = filepath.Join(s.WALDir, id+".wal")
			opts.WALSyncEvery = s.WALSyncEvery
		}
		disp, err := NewDispatcher(camp, s.LeaseTTL, opts)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		run.dispatcher = disp
		run.cancel = disp.Cancel
	} else {
		ctx, cancel := context.WithCancel(context.Background())
		run.cancel = cancel
		go func() {
			defer cancel()
			res, err := camp.Run(ctx, opts)
			run.setFinished(res, err, errors.Is(err, context.Canceled))
		}()
	}

	s.mu.Lock()
	s.runs[id] = run
	s.mu.Unlock()

	resp := map[string]any{"id": id, "jobs": len(camp.jobs)}
	if mode == "dispatch" {
		resp["mode"] = "dispatch"
	}
	if excluded := excludedCount(run.axiom); excluded > 0 {
		resp["axiom_excluded"] = excluded
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// lookupDispatcher resolves a dispatch-mode campaign or writes the
// appropriate error.
func (s *Server) lookupDispatcher(w http.ResponseWriter, req *http.Request) *Dispatcher {
	run, ok := s.lookup(req)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", req.PathValue("id"))
		return nil
	}
	if run.dispatcher == nil {
		writeError(w, http.StatusConflict, "campaign %s is not in dispatch mode", run.id)
		return nil
	}
	return run.dispatcher
}

func (s *Server) handleCorpus(w http.ResponseWriter, req *http.Request) {
	disp := s.lookupDispatcher(w, req)
	if disp == nil {
		return
	}
	writeJSONCounted(w, http.StatusOK, disp.Corpus(), disp.metrics)
}

func (s *Server) handleLease(w http.ResponseWriter, req *http.Request) {
	disp := s.lookupDispatcher(w, req)
	if disp == nil {
		return
	}
	var lr LeaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<20)).Decode(&lr); err != nil {
		writeError(w, http.StatusBadRequest, "decoding lease request: %v", err)
		return
	}
	writeJSONCounted(w, http.StatusOK, disp.Lease(lr), disp.metrics)
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, req *http.Request) {
	disp := s.lookupDispatcher(w, req)
	if disp == nil {
		return
	}
	var hr HeartbeatRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<20)).Decode(&hr); err != nil {
		writeError(w, http.StatusBadRequest, "decoding heartbeat: %v", err)
		return
	}
	writeJSONCounted(w, http.StatusOK, disp.Heartbeat(hr), disp.metrics)
}

// handleComplete is the upload sink. The body is read into a pooled
// buffer and decoded as PWB1, so merged shards flow from the wire into
// the campaign accumulator through reused scratch, never through
// per-request payload-sized garbage. Any other Content-Type is refused
// with 415, and any version but ProtocolVersion with 400 — the decoder
// stops at the version field — before anything merges. A frame error
// (truncated or bit-damaged upload) is answered 400 like any other
// undecodable body. The worker does not re-send a 4xx: its Run fails,
// and its leases expire and requeue. An upload with Lease set is
// answered with the next grants in the same reply.
func (s *Server) handleComplete(w http.ResponseWriter, req *http.Request) {
	disp := s.lookupDispatcher(w, req)
	if disp == nil {
		return
	}
	if ct := req.Header.Get("Content-Type"); ct != harness.WireContentTypeBinary {
		writeError(w, http.StatusUnsupportedMediaType, "upload Content-Type %q, want %s", ct, harness.WireContentTypeBinary)
		return
	}
	buf := bodyBufPool.Get().(*bytes.Buffer)
	defer bodyBufPool.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, req.Body, 64<<20)); err != nil {
		writeError(w, http.StatusBadRequest, "reading upload: %v", err)
		return
	}
	body := buf.Bytes()
	var cr CompleteRequest
	start := time.Now()
	err := harness.DecodeWireBinary(body, &cr, 0)
	disp.metrics.WireDecodeNs.Add(time.Since(start).Nanoseconds())
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding upload: %v", err)
		return
	}
	writeJSONCounted(w, http.StatusOK, disp.Complete(cr, len(body)), disp.metrics)
}

func (s *Server) lookup(req *http.Request) (*serverRun, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[req.PathValue("id")]
	return r, ok
}

// runStatus is the status endpoint's JSON shape.
type runStatus struct {
	ID       string          `json:"id"`
	Name     string          `json:"name,omitempty"`
	State    string          `json:"state"`
	Error    string          `json:"error,omitempty"`
	Started  string          `json:"started"`
	Finished string          `json:"finished,omitempty"`
	Metrics  Snapshot        `json:"metrics"`
	Dispatch *dispatchStatus `json:"dispatch,omitempty"`
	// DeadLetters lists jobs whose retry budget ran out, sorted by job
	// ID — the quarantine an operator inspects to tell a poison shard
	// from an infrastructure problem.
	DeadLetters []JobFailure `json:"dead_letters,omitempty"`
	// Axiom carries the static per-test target classification recorded at
	// submit time (absent when the spec's axiom policy is "off").
	Axiom map[string]TestAxiom `json:"axiom,omitempty"`
	// TraceReports holds the first few rendered witness-trace violation
	// reports when the spec enables trace verification and the machine
	// actually violated the model.
	TraceReports []string `json:"trace_reports,omitempty"`
}

// excludedCount tallies reject-policy exclusions in a classification map.
func excludedCount(axiom map[string]TestAxiom) int {
	n := 0
	for _, ta := range axiom {
		if ta.Excluded {
			n++
		}
	}
	return n
}

// dispatchStatus is the lease ledger's aggregate state for dispatch-mode
// runs.
type dispatchStatus struct {
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
}

func (r *serverRun) status() runStatus {
	out := r.outcome()
	st := runStatus{
		ID:      r.id,
		Name:    r.spec.Name,
		State:   out.state,
		Error:   out.errMsg,
		Started: r.started.UTC().Format(time.RFC3339),
		Metrics: r.metrics.Snapshot(),
	}
	if !out.finished.IsZero() {
		st.Finished = out.finished.UTC().Format(time.RFC3339)
	}
	if r.dispatcher != nil {
		var ds dispatchStatus
		ds.Pending, ds.Leased, ds.Done, ds.Failed = r.dispatcher.Status()
		st.Dispatch = &ds
	}
	st.Axiom = r.axiom
	st.DeadLetters = r.deadLetterList()
	st.TraceReports = r.traceReportList()
	return st
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	runs := make([]*serverRun, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	sort.Slice(runs, func(i, j int) bool { return runs[i].id < runs[j].id })
	out := make([]runStatus, len(runs))
	for i, r := range runs {
		out[i] = r.status()
	}
	writeJSON(w, http.StatusOK, map[string]any{"campaigns": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, req *http.Request) {
	run, ok := s.lookup(req)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", req.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, run.status())
}

func (s *Server) handleResults(w http.ResponseWriter, req *http.Request) {
	run, ok := s.lookup(req)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", req.PathValue("id"))
		return
	}
	out := run.outcome()
	state, res := out.state, out.results
	if state == StateRunning || res == nil {
		writeError(w, http.StatusConflict, "campaign %s is still %s", run.id, state)
		return
	}
	if req.URL.Query().Get("format") == "canonical" {
		data, err := res.CanonicalJSON()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
		return
	}
	target, ticks, n := res.Totals()
	writeJSON(w, http.StatusOK, map[string]any{
		"id":     run.id,
		"state":  state,
		"totals": map[string]int64{"iterations": n, "target": target, "ticks": ticks},
		"groups": res.sortedGroups(),
		"failures": func() []JobFailure {
			fails := make([]JobFailure, 0, len(res.Failures))
			fails = append(fails, res.Failures...)
			sort.Slice(fails, func(i, j int) bool { return fails[i].JobID < fails[j].JobID })
			return fails
		}(),
	})
}

func (s *Server) handleCancel(w http.ResponseWriter, req *http.Request) {
	run, ok := s.lookup(req)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", req.PathValue("id"))
		return
	}
	run.cancel()
	writeJSON(w, http.StatusOK, map[string]string{"id": run.id, "state": "cancelling"})
}
