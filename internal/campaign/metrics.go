package campaign

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is the campaign engine's observability surface: lock-free
// counters the dispatcher and executors update in place, snapshotted
// expvar-style by /metrics and the status endpoints. A Metrics value
// must not be copied after first use.
type Metrics struct {
	// JobsTotal is the campaign's full job count, including restored
	// ones.
	JobsTotal atomic.Int64
	// JobsCompleted counts jobs merged into the totals this run.
	JobsCompleted atomic.Int64
	// JobsRestored counts jobs restored from a checkpoint instead of
	// re-run.
	JobsRestored atomic.Int64
	// JobsFailed counts jobs whose retry budget ran out.
	JobsFailed atomic.Int64
	// Retries counts failed attempts that were re-queued.
	Retries atomic.Int64
	// QueueDepth is the number of jobs not yet picked up by a worker.
	QueueDepth atomic.Int64
	// InFlight is the number of jobs currently executing.
	InFlight atomic.Int64
	// Iterations counts simulated test iterations completed this run.
	Iterations atomic.Int64

	// Trace-verification counters (witness-trace plane; internal/trace).
	// Like Iterations they count work done this run, not restored from a
	// checkpoint; TraceVerifyNs is measured where verification ran, so
	// fleet campaigns account worker-side checking on the workers.

	// TracesVerified counts rf/co witnesses checked.
	TracesVerified atomic.Int64
	// TraceViolations counts witnesses the model rejected.
	TraceViolations atomic.Int64
	// TraceVerifyNs is host nanoseconds spent checking witnesses.
	TraceVerifyNs atomic.Int64

	// Dispatch-layer counters (the lease ledger). Local runs lease too;
	// heartbeats, fence drops, and upload bytes arise only from fleet
	// workers.

	// LeasesGranted counts jobs handed to workers (re-leases included).
	LeasesGranted atomic.Int64
	// LeaseRequeues counts leases that expired or failed and went back to
	// the queue.
	LeaseRequeues atomic.Int64
	// Heartbeats counts lease extensions from worker heartbeats.
	Heartbeats atomic.Int64
	// ResultsFenced counts duplicate completions dropped by the
	// completion fence (a slow worker and its requeued replacement both
	// reported).
	ResultsFenced atomic.Int64
	// DuplicateUploads counts re-deliveries of an already-merged upload
	// under the same lease nonce (a worker retrying after a lost
	// response) — distinct from ResultsFenced, which counts competing
	// holders.
	DuplicateUploads atomic.Int64
	// UploadBytes counts compressed result-payload bytes received.
	UploadBytes atomic.Int64

	// Wire-layer counters (result codec and dispatch response path).

	// WireBytesRecv counts upload-request body bytes received, whichever
	// codec carried them (same bytes as UploadBytes, kept as a separate
	// family so the wire layer reads as one block on /metrics).
	WireBytesRecv atomic.Int64
	// WireBytesSent counts dispatch-endpoint response body bytes sent.
	WireBytesSent atomic.Int64
	// WireEncodeNs is host nanoseconds spent encoding dispatch responses.
	WireEncodeNs atomic.Int64
	// WireDecodeNs is host nanoseconds spent decoding result uploads.
	WireDecodeNs atomic.Int64
	// WireBatch is the distribution of results per upload batch.
	WireBatch BatchHist

	// Durability counters (checkpoint layer).

	// CheckpointErrors counts snapshot writes that failed and will be
	// retried at the next flush.
	CheckpointErrors atomic.Int64
	// CheckpointRecoveries counts resumes that fell back to the rotated
	// last-good snapshot because the active one was corrupt or missing.
	CheckpointRecoveries atomic.Int64
	// CheckpointSaves counts snapshots written: scheduled (compactions,
	// with a WAL) and closing.
	CheckpointSaves atomic.Int64
	// CheckpointNs is host nanoseconds spent writing snapshots, failed
	// attempts included.
	CheckpointNs atomic.Int64
	// CheckpointBytes counts snapshot bytes written. Each save rewrites
	// the whole file, so over a run it grows with saves × done results.
	CheckpointBytes atomic.Int64

	// Write-ahead-log counters (durable dispatch plane; wal.go).

	// WALAppends counts ledger transition records appended to the log.
	WALAppends atomic.Int64
	// WALAppendErrors counts appends or fsyncs that failed and degraded
	// the log until the next compaction installed a fresh segment.
	WALAppendErrors atomic.Int64
	// WALFsyncNs is host nanoseconds spent in WAL group-commit fsyncs.
	WALFsyncNs atomic.Int64
	// WALFsyncs counts WAL group-commit fsyncs: at most one per
	// dispatcher exchange, so WALAppends/WALFsyncs is the records each
	// commit made durable.
	WALFsyncs atomic.Int64
	// WALReplays counts dispatcher startups that replayed an existing
	// log.
	WALReplays atomic.Int64
	// WALCompactions counts snapshots the log was folded into, the
	// startup compaction included; the closing save is not counted.
	WALCompactions atomic.Int64
	// WALTruncatedRecords counts torn tail records dropped during
	// replay (a crash or partial-append fault mid-record).
	WALTruncatedRecords atomic.Int64

	startOnce       sync.Once
	startNano       atomic.Int64
	startMallocs    atomic.Uint64
	startTotalAlloc atomic.Uint64
}

// batchBuckets are the BatchHist upper bounds (le); the final +Inf
// bucket is implicit.
var batchBuckets = [...]int64{1, 2, 4, 8, 16, 32, 64, 128}

// BatchHist is a lock-free fixed-bucket histogram of upload batch sizes
// (results per completion upload), shaped for Prometheus exposition:
// cumulative bucket counts plus sum and count. The zero value is ready
// to use; like Metrics it must not be copied after first use.
type BatchHist struct {
	buckets [len(batchBuckets) + 1]atomic.Int64 // last = +Inf
	sum     atomic.Int64
	count   atomic.Int64
}

// Observe records one batch of n results.
func (h *BatchHist) Observe(n int) {
	i := 0
	for i < len(batchBuckets) && int64(n) > batchBuckets[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sum.Add(int64(n))
	h.count.Add(1)
}

// BatchHistSnapshot is a point-in-time copy of a BatchHist, JSON-ready.
// Buckets holds per-bucket (not cumulative) counts keyed by upper
// bound, with "+Inf" last.
type BatchHistSnapshot struct {
	Buckets map[string]int64 `json:"buckets,omitempty"`
	Sum     int64            `json:"sum"`
	Count   int64            `json:"count"`
}

// Snapshot copies the histogram.
func (h *BatchHist) Snapshot() BatchHistSnapshot {
	s := BatchHistSnapshot{Sum: h.sum.Load(), Count: h.count.Load()}
	if s.Count == 0 {
		return s
	}
	s.Buckets = make(map[string]int64, len(h.buckets))
	for i := range h.buckets {
		if v := h.buckets[i].Load(); v != 0 {
			s.Buckets[batchBucketLabel(i)] = v
		}
	}
	return s
}

// batchBucketLabel names bucket i by its upper bound.
func batchBucketLabel(i int) string {
	if i >= len(batchBuckets) {
		return "+Inf"
	}
	return strconv.FormatInt(batchBuckets[i], 10)
}

// Merge sums another snapshot into s.
func (s *BatchHistSnapshot) Merge(o BatchHistSnapshot) {
	s.Sum += o.Sum
	s.Count += o.Count
	if len(o.Buckets) == 0 {
		return
	}
	if s.Buckets == nil {
		s.Buckets = make(map[string]int64, len(o.Buckets))
	}
	for k, v := range o.Buckets {
		s.Buckets[k] += v
	}
}

// Start marks the measurement epoch for the iterations/sec and
// allocations-per-iteration rates; later calls are no-ops.
func (m *Metrics) Start() {
	m.startOnce.Do(func() {
		m.startNano.Store(time.Now().UnixNano())
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m.startMallocs.Store(ms.Mallocs)
		m.startTotalAlloc.Store(ms.TotalAlloc)
	})
}

// Snapshot is a point-in-time copy of every gauge, JSON-ready.
type Snapshot struct {
	JobsTotal            int64             `json:"jobs_total"`
	JobsCompleted        int64             `json:"jobs_completed"`
	JobsRestored         int64             `json:"jobs_restored"`
	JobsFailed           int64             `json:"jobs_failed"`
	Retries              int64             `json:"retries"`
	QueueDepth           int64             `json:"queue_depth"`
	InFlight             int64             `json:"in_flight"`
	Iterations           int64             `json:"iterations"`
	TracesVerified       int64             `json:"traces_verified"`
	TraceViolations      int64             `json:"trace_violations"`
	TraceVerifyNs        int64             `json:"trace_verify_ns"`
	LeasesGranted        int64             `json:"leases_granted"`
	LeaseRequeues        int64             `json:"lease_requeues"`
	Heartbeats           int64             `json:"heartbeats"`
	ResultsFenced        int64             `json:"results_fenced"`
	DuplicateUploads     int64             `json:"duplicate_uploads"`
	UploadBytes          int64             `json:"upload_bytes"`
	WireBytesRecv        int64             `json:"wire_bytes_recv"`
	WireBytesSent        int64             `json:"wire_bytes_sent"`
	WireEncodeNs         int64             `json:"wire_encode_ns"`
	WireDecodeNs         int64             `json:"wire_decode_ns"`
	WireBatch            BatchHistSnapshot `json:"wire_batch"`
	CheckpointErrors     int64             `json:"checkpoint_errors"`
	CheckpointRecoveries int64             `json:"checkpoint_recoveries"`
	CheckpointSaves      int64             `json:"checkpoint_saves"`
	CheckpointNs         int64             `json:"checkpoint_ns"`
	CheckpointBytes      int64             `json:"checkpoint_bytes"`
	WALAppends           int64             `json:"wal_appends"`
	WALAppendErrors      int64             `json:"wal_append_errors"`
	WALFsyncNs           int64             `json:"wal_fsync_ns"`
	WALFsyncs            int64             `json:"wal_fsyncs"`
	WALReplays           int64             `json:"wal_replays"`
	WALCompactions       int64             `json:"wal_compactions"`
	WALTruncatedRecords  int64             `json:"wal_truncated_records"`
	ElapsedSec           float64           `json:"elapsed_sec"`
	IterationsPerSec     float64           `json:"iterations_per_sec"`
	// Allocs is the process-wide heap-allocation count since Start (a
	// runtime.MemStats.Mallocs delta), and AllocsPerIter divides it by
	// the iterations completed. Process-wide means concurrent campaigns
	// and the HTTP server itself are included, so read it as an upper
	// bound on the per-iteration allocation rate of the hot path.
	Allocs        int64   `json:"allocs"`
	AllocsPerIter float64 `json:"allocs_per_iter"`
	// AllocBytes is the process-wide heap bytes allocated since Start (a
	// runtime.MemStats.TotalAlloc delta), and AllocBytesPerIter divides
	// it by the iterations completed: the volume Allocs cannot show,
	// since a few large buffers count as few allocations. Process-wide
	// like Allocs.
	AllocBytes        int64   `json:"alloc_bytes"`
	AllocBytesPerIter float64 `json:"alloc_bytes_per_iter"`
}

// Snapshot reads every counter once and derives the iteration rate over
// the elapsed time since Start.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		JobsTotal:            m.JobsTotal.Load(),
		JobsCompleted:        m.JobsCompleted.Load(),
		JobsRestored:         m.JobsRestored.Load(),
		JobsFailed:           m.JobsFailed.Load(),
		Retries:              m.Retries.Load(),
		QueueDepth:           m.QueueDepth.Load(),
		InFlight:             m.InFlight.Load(),
		Iterations:           m.Iterations.Load(),
		TracesVerified:       m.TracesVerified.Load(),
		TraceViolations:      m.TraceViolations.Load(),
		TraceVerifyNs:        m.TraceVerifyNs.Load(),
		LeasesGranted:        m.LeasesGranted.Load(),
		LeaseRequeues:        m.LeaseRequeues.Load(),
		Heartbeats:           m.Heartbeats.Load(),
		ResultsFenced:        m.ResultsFenced.Load(),
		DuplicateUploads:     m.DuplicateUploads.Load(),
		UploadBytes:          m.UploadBytes.Load(),
		WireBytesRecv:        m.WireBytesRecv.Load(),
		WireBytesSent:        m.WireBytesSent.Load(),
		WireEncodeNs:         m.WireEncodeNs.Load(),
		WireDecodeNs:         m.WireDecodeNs.Load(),
		WireBatch:            m.WireBatch.Snapshot(),
		CheckpointErrors:     m.CheckpointErrors.Load(),
		CheckpointRecoveries: m.CheckpointRecoveries.Load(),
		CheckpointSaves:      m.CheckpointSaves.Load(),
		CheckpointNs:         m.CheckpointNs.Load(),
		CheckpointBytes:      m.CheckpointBytes.Load(),
		WALAppends:           m.WALAppends.Load(),
		WALAppendErrors:      m.WALAppendErrors.Load(),
		WALFsyncNs:           m.WALFsyncNs.Load(),
		WALFsyncs:            m.WALFsyncs.Load(),
		WALReplays:           m.WALReplays.Load(),
		WALCompactions:       m.WALCompactions.Load(),
		WALTruncatedRecords:  m.WALTruncatedRecords.Load(),
	}
	if start := m.startNano.Load(); start > 0 {
		s.ElapsedSec = time.Since(time.Unix(0, start)).Seconds()
		if s.ElapsedSec > 0 {
			s.IterationsPerSec = float64(s.Iterations) / s.ElapsedSec
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.Allocs = int64(ms.Mallocs - m.startMallocs.Load())
		s.AllocBytes = int64(ms.TotalAlloc - m.startTotalAlloc.Load())
		s.perIter()
	}
	return s
}

// perIter derives the per-iteration allocation rates.
func (s *Snapshot) perIter() {
	if s.Iterations > 0 {
		s.AllocsPerIter = float64(s.Allocs) / float64(s.Iterations)
		s.AllocBytesPerIter = float64(s.AllocBytes) / float64(s.Iterations)
	}
}

// Merge sums another snapshot into s, for server-level aggregation
// across campaigns. Rates are re-derived by the caller.
func (s *Snapshot) Merge(o Snapshot) {
	s.JobsTotal += o.JobsTotal
	s.JobsCompleted += o.JobsCompleted
	s.JobsRestored += o.JobsRestored
	s.JobsFailed += o.JobsFailed
	s.Retries += o.Retries
	s.QueueDepth += o.QueueDepth
	s.InFlight += o.InFlight
	s.Iterations += o.Iterations
	s.TracesVerified += o.TracesVerified
	s.TraceViolations += o.TraceViolations
	s.TraceVerifyNs += o.TraceVerifyNs
	s.LeasesGranted += o.LeasesGranted
	s.LeaseRequeues += o.LeaseRequeues
	s.Heartbeats += o.Heartbeats
	s.ResultsFenced += o.ResultsFenced
	s.DuplicateUploads += o.DuplicateUploads
	s.UploadBytes += o.UploadBytes
	s.WireBytesRecv += o.WireBytesRecv
	s.WireBytesSent += o.WireBytesSent
	s.WireEncodeNs += o.WireEncodeNs
	s.WireDecodeNs += o.WireDecodeNs
	s.WireBatch.Merge(o.WireBatch)
	s.CheckpointErrors += o.CheckpointErrors
	s.CheckpointRecoveries += o.CheckpointRecoveries
	s.CheckpointSaves += o.CheckpointSaves
	s.CheckpointNs += o.CheckpointNs
	s.CheckpointBytes += o.CheckpointBytes
	s.WALAppends += o.WALAppends
	s.WALAppendErrors += o.WALAppendErrors
	s.WALFsyncNs += o.WALFsyncNs
	s.WALFsyncs += o.WALFsyncs
	s.WALReplays += o.WALReplays
	s.WALCompactions += o.WALCompactions
	s.WALTruncatedRecords += o.WALTruncatedRecords
	s.IterationsPerSec += o.IterationsPerSec
	if o.ElapsedSec > s.ElapsedSec {
		s.ElapsedSec = o.ElapsedSec
	}
	s.Allocs += o.Allocs
	s.AllocBytes += o.AllocBytes
	s.perIter()
}
