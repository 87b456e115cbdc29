package campaign

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"perple/internal/litmus"
)

// Options tunes one campaign execution, local (Campaign.Run) or fleet
// (NewDispatcher) — everything here is about *how* the campaign
// executes; *what* it executes lives in the Spec.
type Options struct {
	// CheckpointPath, when non-empty, enables crash recovery: completed
	// job results are snapshotted there, and a pre-existing snapshot for
	// the same spec is restored instead of re-running its jobs.
	CheckpointPath string

	// CheckpointEvery is the floor of the doubling snapshot interval: a
	// snapshot is saved once the terminal job transitions (merges + dead
	// letters) since the last one reach the larger of n and the terminal
	// rows that snapshot holds. The interval doubles as the campaign
	// progresses, so saves write O(jobs) bytes over a run; with a WAL
	// each such save is a compaction that truncates the log. The closing
	// save always runs, so an interrupted run loses nothing; a hard kill
	// re-runs at most one interval's jobs. 0 selects 64.
	CheckpointEvery int

	// CheckpointFS is the filesystem under checkpoint I/O; nil selects
	// the real one. The chaos tests inject fault-ridden implementations
	// here.
	CheckpointFS CheckpointFS

	// WALPath, when non-empty, makes the lease ledger durable: every
	// ledger transition is appended to a write-ahead log there, and a
	// restarted run replays snapshot + log to reconstruct the exact
	// ledger. Requires CheckpointPath, since the log compacts into the
	// checkpoint.
	WALPath string

	// WALSyncEvery is the WAL group-commit cadence: a dispatcher
	// exchange ends with an fsync once n appended records are unsynced;
	// 0 or 1 fsyncs every exchange that logged a record, before its
	// reply.
	WALSyncEvery int

	// Metrics receives the run's counters; nil allocates a private set.
	Metrics *Metrics

	// OnJobDone, when set, observes every merged job result. The
	// dispatcher calls it under its lock as the result merges, so calls
	// are serialized and must not call back into the dispatcher.
	OnJobDone func(*JobResult)

	// OnJobFailed, when set, observes every job whose retry budget ran
	// out — the dead-letter stream the server surfaces on the status
	// endpoint. Called under the dispatcher lock, like OnJobDone.
	OnJobFailed func(JobFailure)

	// runJob overrides job execution; tests inject failures and panics
	// here. nil selects the real harness-backed runner.
	runJob jobFunc
}

// defaultCheckpointFloor is the floor of the snapshot interval when
// Options.CheckpointEvery is unset.
const defaultCheckpointFloor = 64

// DefaultLeaseTTL is how long a worker may sit on a leased job without
// heartbeating before it requeues.
const DefaultLeaseTTL = 60 * time.Second

// Dispatcher is the campaign engine: a lease ledger that hands jobs to
// executors and merges what they report. It has two transports. Fleet
// workers reach it over HTTP (http.go, worker.go); Campaign.Run's
// in-process executors call complete directly. The
// determinism contract is the same for both — job seeds are
// identity-derived and merging is order-invariant — so any number of
// executors on either transport reach byte-identical final results,
// whatever the interleaving of leases, expiries, and uploads.
//
// Without a WAL, leases are in-memory only; the checkpoint persists
// completed results, and a dispatcher rebuilt after a restart restores
// the done set and re-leases everything that was in flight —
// at-least-once delivery, made safe by the completion fence and
// per-shard determinism. With Options.WALPath set, the durable plane
// (wal.go) logs every ledger transition, and a restart replays
// snapshot + log suffix to reconstruct the exact ledger — live leases,
// retry budgets, and the merged-lease nonces that keep
// duplicate-vs-fenced classification precise — instead of forgetting
// it.
type Dispatcher struct {
	camp  *Campaign
	opts  Options
	ttl   time.Duration // 0 for an in-process run: leases never expire
	floor int           // floor of the snapshot interval (Options.CheckpointEvery)
	now   func() time.Time
	// corpus renders the wire corpus on first use: only fleet workers
	// fetch it, so in-process runs never pay for formatting every test.
	corpus func() []CorpusTest

	metrics *Metrics

	mu      sync.Mutex
	q       *leaseQueue
	wal     *wal // nil without Options.WALPath
	results *Results
	// done is indexed by job ID. With a CheckpointPath an entry holds the
	// merged result's compact JSON — encoded once, when the result was
	// merged, restored from the checkpoint or replayed from the WAL, and
	// written verbatim by every later snapshot — and without one the
	// shared empty doneMark; nil means not done. The results themselves
	// live on only in the totals.
	done  [][]byte
	ndone int
	// snap writes every snapshot: scheduled and closing. nil without a
	// CheckpointPath.
	snap          *snapshotWriter
	mergedLease   map[int]int64 // job ID → lease nonce its merged upload carried
	sinceSnap     int           // merges + dead letters since the last snapshot
	snapTerminal  int           // done + dead-lettered rows in the last snapshot
	checkpointErr error         // final-save failure; transient mid-run errors only count in metrics
	finishedAt    time.Time     // when finish ran; immutable once finishCh is closed
	finished      bool
	cancelled     bool
	finishCh      chan struct{}

	// lastNext is, per worker, the grants its last lease-carrying upload
	// was answered with: what a retried upload whose reply was lost gets
	// again (see leaseLocked). In memory only; a restart forgets it.
	lastNext map[string][]LeaseRef

	// killed simulates kill -9 for the chaos suite: every subsequent
	// checkpoint save and WAL append becomes a no-op while the in-memory
	// dispatcher keeps acknowledging — strictly more adversarial than a
	// real crash, which at least stops acking too. Reached only through
	// killHook, which tests install at adversarial junctures.
	killed   bool
	killHook func(point string) bool
}

// NewDispatcher restores the campaign's checkpoint — checkpointed
// results are loaded and only the remaining jobs enter the lease queue
// — then stands ready to serve leases to fleet workers. ttl ≤ 0 selects
// DefaultLeaseTTL.
func NewDispatcher(camp *Campaign, ttl time.Duration, opts Options) (*Dispatcher, error) {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	return newDispatcher(camp, ttl, opts)
}

// newDispatcher is NewDispatcher taking ttl as given; ttl 0 builds an
// in-process dispatcher, whose leases never expire (see leaseQueue).
func newDispatcher(camp *Campaign, ttl time.Duration, opts Options) (*Dispatcher, error) {
	metrics := opts.Metrics
	if metrics == nil {
		metrics = &Metrics{}
	}
	metrics.Start()
	floor := opts.CheckpointEvery
	if floor <= 0 {
		floor = defaultCheckpointFloor
	}
	if opts.CheckpointFS == nil {
		opts.CheckpointFS = osCheckpointFS{}
	}
	if opts.runJob == nil {
		opts.runJob = runJob
	}
	if opts.WALPath != "" && opts.CheckpointPath == "" {
		return nil, fmt.Errorf("campaign: WALPath requires CheckpointPath (the log compacts into the checkpoint)")
	}

	var restored map[int]*JobResult
	var ledger *LedgerSnapshot
	var snap *snapshotWriter
	if opts.CheckpointPath != "" {
		var err error
		if snap, err = newSnapshotWriter(camp.Spec); err != nil {
			return nil, err
		}
		done, lg, recovered, err := LoadCheckpointLedgerFS(opts.CheckpointFS, opts.CheckpointPath, camp.Spec)
		switch {
		case err == nil:
			restored = done
			ledger = lg
			if recovered {
				metrics.CheckpointRecoveries.Add(1)
			}
		case os.IsNotExist(err):
			// Fresh campaign.
		default:
			return nil, err
		}
	}
	if err := camp.validateRestored(restored); err != nil {
		return nil, err
	}

	d := &Dispatcher{
		camp:        camp,
		opts:        opts,
		ttl:         ttl,
		floor:       floor,
		now:         time.Now,
		corpus:      sync.OnceValue(func() []CorpusTest { return buildCorpus(camp) }),
		metrics:     metrics,
		results:     NewResults(),
		done:        make([][]byte, len(camp.jobs)),
		snap:        snap,
		mergedLease: map[int]int64{},
		lastNext:    map[string][]LeaseRef{},
		finishCh:    make(chan struct{}),
	}
	// validateRestored has checked every restored result against its job.
	for _, job := range camp.jobs {
		if jr := restored[job.ID]; jr != nil {
			d.results.Add(jr)
			d.markDoneLocked(jr)
		}
	}
	// A restored run's first interval starts from the rows it restored.
	d.snapTerminal = d.ndone
	if opts.WALPath == "" {
		var pending []Job
		for _, job := range camp.jobs {
			if d.done[job.ID] == nil {
				pending = append(pending, job)
			}
		}
		d.q = newLeaseQueue(pending, ttl, camp.Spec.MaxRetries, time.Now)
	} else if err := d.recoverDurable(ledger); err != nil {
		return nil, err
	}
	metrics.JobsTotal.Store(int64(len(camp.jobs)))
	metrics.JobsRestored.Store(int64(d.ndone))
	pendingN, leasedN, _, _ := d.q.counts()
	metrics.QueueDepth.Store(int64(pendingN))
	metrics.InFlight.Store(int64(leasedN))
	if d.cancelled || d.q.allDone() {
		d.finish()
	}
	return d, nil
}

// recoverDurable rebuilds the exact lease ledger from the checkpoint's
// ledger section plus the WAL suffix, then leaves the log ready for
// appends (startup compaction: fold the recovered state into a fresh
// snapshot and truncate the log). Runs from the constructor, before any
// concurrency.
func (d *Dispatcher) recoverDurable(ledger *LedgerSnapshot) error {
	fsys := walFSFor(d.opts.CheckpointFS)
	crc := specWALCRC(d.camp.Spec)

	// Queue rows come from the snapshot's ledger; jobs covered by
	// neither a row nor the done set (fresh campaign, or a pre-WAL
	// snapshot without a ledger section) enter as synthetic pending
	// rows. Jobs done without a row were restored before ever entering a
	// queue and need none.
	var rows []LedgerRow
	var nextLease int64
	if ledger != nil {
		rows = ledger.Rows
		nextLease = ledger.NextLease
		d.cancelled = d.cancelled || ledger.Cancelled
		for _, m := range ledger.Merged {
			d.mergedLease[m.JobID] = m.LeaseID
		}
	}
	covered := make(map[int]bool, len(rows))
	for _, row := range rows {
		covered[row.JobID] = true
	}
	for _, job := range d.camp.jobs {
		if covered[job.ID] {
			continue
		}
		if d.done[job.ID] != nil {
			continue
		}
		rows = append(rows, LedgerRow{JobID: job.ID, State: int(statePending)})
	}
	d.q = newLeaseQueueFromRows(d.camp.jobs, rows, d.ttl, d.camp.Spec.MaxRetries, nextLease, time.Now)

	// Re-impose the snapshot's terminal rows on the totals: dead letters
	// rejoin the failure record, and a done row whose result is missing
	// from the snapshot (an inconsistency no correct writer produces) is
	// defensively downgraded to pending — re-running a deterministic
	// shard is always safe, silently losing it from the totals is not.
	for _, id := range d.q.ids {
		e := d.q.entries[id]
		if e.state != stateDone {
			continue
		}
		if e.failed {
			d.recordFailureLocked(e)
		} else if d.done[id] == nil {
			d.q.setState(e, statePending)
			d.q.requeue(id)
		}
	}

	rep, err := replayWAL(fsys, d.opts.WALPath, crc)
	if err != nil {
		return err
	}
	if rep.existed {
		d.metrics.WALReplays.Add(1)
	}
	if rep.truncated > 0 {
		d.metrics.WALTruncatedRecords.Add(int64(rep.truncated))
	}
	for i := range rep.recs {
		d.applyWALRecord(&rep.recs[i])
	}
	if d.ttl == 0 {
		// An in-process run's leases died with the process that granted
		// them, and no fleet worker can reach it: every live row goes back
		// to pending, its retry budget untouched.
		d.q.releaseLeased()
	}

	d.wal = newWAL(fsys, d.opts.WALPath, d.opts.WALSyncEvery, crc, d.metrics)
	if d.snapshotLocked() == nil {
		return nil
	}
	// The startup compaction could not persist a fresh snapshot. Keep
	// the existing history appendable instead: clear a torn tail by
	// reinstalling the valid prefix, or attach to the intact file; with
	// no usable history, start a begin-only segment. Failures here leave
	// the log degraded until a later compaction succeeds — the campaign
	// runs either way.
	switch {
	case rep.truncated > 0 && len(rep.recs) > 0:
		_ = d.wal.installSegment(rep.prefix)
	case rep.truncated == 0 && len(rep.recs) > 0:
		_ = d.wal.openExisting()
	default:
		_ = d.wal.rotate()
	}
	return nil
}

// applyWALRecord replays one logged transition over the restored
// ledger. Application is defensive and idempotent-by-absoluteness:
// every record states the row's resulting state, so a stale suffix
// (records the snapshot already absorbed, left by a crash between
// checkpoint save and log truncation) converges to the same final
// ledger — the last record per job wins, and terminal rows are never
// reopened or double-counted.
func (d *Dispatcher) applyWALRecord(rec *walRecord) {
	switch rec.Kind {
	case walKindGrant:
		d.q.applyGrant(rec.JobID, rec.LeaseID, rec.Worker, time.Unix(0, rec.Expires))
	case walKindExtend:
		d.q.applyExtend(rec.JobID, rec.LeaseID, time.Unix(0, rec.Expires))
	case walKindComplete:
		if rec.Result == nil || !d.resultMatchesJob(rec.Result) {
			return
		}
		if d.done[rec.Result.JobID] != nil {
			return
		}
		if accepted, _ := d.q.complete(LeaseRef{JobID: rec.Result.JobID, LeaseID: rec.LeaseID}); accepted {
			d.mergedLease[rec.Result.JobID] = rec.LeaseID
			d.results.Add(rec.Result)
			d.markDoneLocked(rec.Result)
		}
	case walKindRequeue:
		d.q.applyRequeue(rec.JobID, rec.Attempts, rec.Err)
	case walKindDeadLetter:
		if e, ok := d.q.applyDeadLetter(rec.JobID, rec.Attempts, rec.Err); ok {
			d.recordFailureLocked(e)
		}
	case walKindCancel:
		d.cancelled = true
	}
}

// buildCorpus renders every campaign test back to parseable litmus
// source, sorted by name, so workers can reconstruct the exact corpus
// over the wire.
func buildCorpus(camp *Campaign) []CorpusTest {
	names := make([]string, 0, len(camp.tests))
	for name := range camp.tests {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]CorpusTest, 0, len(names))
	for _, name := range names {
		out = append(out, CorpusTest{Name: name, Source: litmus.Format(camp.tests[name])})
	}
	return out
}

// Corpus returns the wire form of the campaign's spec and test set.
func (d *Dispatcher) Corpus() CorpusResponse {
	return CorpusResponse{Version: ProtocolVersion, Spec: d.camp.Spec, Tests: d.corpus()}
}

// Finished is closed when every job has completed or permanently failed
// (or the run was cancelled).
func (d *Dispatcher) Finished() <-chan struct{} { return d.finishCh }

// Outcome returns the merged results, the closing-snapshot error if the
// final checkpoint write could not be persisted, and whether the run
// was cancelled. Valid once Finished is closed; before that it reports
// the partial state.
func (d *Dispatcher) Outcome() (*Results, error, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.results, d.checkpointErr, d.cancelled
}

// Cancel stops granting leases and finishes the run with its partial
// totals. In-flight workers learn on their next protocol call.
func (d *Dispatcher) Cancel() {
	d.mu.Lock()
	defer d.mu.Unlock()
	defer d.wal.commit()
	if d.finished {
		return
	}
	d.cancelled = true
	if d.wal != nil {
		d.wal.append(&walRecord{Kind: walKindCancel, SpecCRC: d.wal.specCRC})
	}
	d.finish()
}

// finish closes the run. Caller holds d.mu (or is the constructor).
// The closing save persists every merge since the last scheduled one.
// With a WAL, the closing durability step is: flush the log (so even a
// failed final save leaves a replayable record of every merge), save
// the checkpoint with the final ledger, and — only if the save landed —
// truncate the log back to a begin record. Only the final save's
// failure surfaces in Outcome; see snapshotLocked for why mid-run save
// errors stay transient.
func (d *Dispatcher) finish() {
	if d.finished {
		return
	}
	d.finished = true
	d.finishedAt = time.Now() //perple:allow nodeterminism wall-clock status stamp; never feeds results
	if d.snap != nil && !d.killed {
		if d.wal != nil {
			d.wal.syncNow()
			d.checkpointErr = d.saveFinalLocked(true)
			if d.checkpointErr == nil {
				_ = d.wal.rotate()
			}
			d.wal.close()
		} else if d.sinceSnap > 0 {
			d.checkpointErr = d.saveFinalLocked(false)
		}
	}
	close(d.finishCh)
}

// finalSaveRetries bounds how many times the closing snapshot write is
// retried before the run surfaces the error.
const finalSaveRetries = 3

// saveFinalLocked makes the closing snapshot write resilient to
// transient disk faults: up to finalSaveRetries attempts, counting each
// failure, returning the last error only if none succeeded. Caller
// holds d.mu.
func (d *Dispatcher) saveFinalLocked(withLedger bool) error {
	var err error
	for attempt := 0; attempt < finalSaveRetries; attempt++ {
		if err = d.saveLocked(withLedger); err == nil {
			return nil
		}
	}
	return err
}

// ledgerPool recycles the ledger sections of compacting and closing
// saves. Rows kept by each dispatcher would stay allocated for its whole
// life, idle or not; pooled, a GC can reclaim them between runs.
var ledgerPool = sync.Pool{New: func() any { return new(LedgerSnapshot) }}

// saveLocked writes one snapshot of the done set, with the full lease
// ledger as its ledger section when withLedger: the one save behind
// scheduled snapshots, WAL compaction and the closing save. It counts
// the save, its bytes and its host time, or a checkpoint error. Caller
// holds d.mu.
func (d *Dispatcher) saveLocked(withLedger bool) error {
	var ledger *LedgerSnapshot
	if withLedger {
		ledger = ledgerPool.Get().(*LedgerSnapshot)
		defer ledgerPool.Put(ledger)
		d.ledgerLocked(ledger)
	}
	start := time.Now() //perple:allow nodeterminism wall-clock telemetry; never feeds results
	n, err := d.snap.save(d.opts.CheckpointFS, d.opts.CheckpointPath, d.done, ledger)
	d.metrics.CheckpointNs.Add(time.Since(start).Nanoseconds()) //perple:allow nodeterminism wall-clock telemetry; never feeds results
	if err != nil {
		d.metrics.CheckpointErrors.Add(1)
		return err
	}
	d.metrics.CheckpointSaves.Add(1)
	d.metrics.CheckpointBytes.Add(n)
	return nil
}

// ledgerLocked captures the full lease ledger for a checkpoint's ledger
// section into lg, refilling its slices. Caller holds d.mu.
func (d *Dispatcher) ledgerLocked(lg *LedgerSnapshot) {
	lg.NextLease, lg.Cancelled = d.q.nextLease, d.cancelled
	lg.Rows = d.q.ledgerRows(lg.Rows[:0])
	lg.Merged = lg.Merged[:0]
	for id, nonce := range d.mergedLease {
		lg.Merged = append(lg.Merged, MergedLease{JobID: id, LeaseID: nonce})
	}
	slices.SortFunc(lg.Merged, func(a, b MergedLease) int { return cmp.Compare(a.JobID, b.JobID) })
}

// checkpointLocked saves a snapshot once it is due: when the terminal
// transitions since the last one reach max(floor, terminal rows in it).
// The interval doubles as the campaign progresses, so a run of J jobs
// saves O(log J) times and writes O(J) bytes, and the terminal
// transitions a hard kill loses — or the WAL, when there is one, holds
// — number at most max(floor, T) over a snapshot of T terminal rows.
// Caller holds d.mu.
func (d *Dispatcher) checkpointLocked() {
	if d.snap != nil && d.sinceSnap >= max(d.floor, d.snapTerminal) {
		_ = d.snapshotLocked()
	}
}

// snapshotLocked saves the current state and restarts the interval from
// the rows the snapshot holds. With a WAL the save is a compaction: the
// snapshot carries the ledger and, on success, the log is truncated to a
// begin-only segment. Ordering is the safety argument: the snapshot
// persists before any log bytes are discarded, so a crash at any point
// leaves either (old snapshot + full log) or (new snapshot +
// stale-but-convergent log) — never a state with merges recorded
// nowhere. A failed save is transient: it counts a checkpoint error,
// keeps the log intact and the interval running, so the next exchange
// retries, and the snapshot already on disk remains a valid (stale)
// resume point. Caller holds d.mu.
func (d *Dispatcher) snapshotLocked() error {
	if d.killed {
		return nil
	}
	if err := d.saveLocked(d.wal != nil); err != nil {
		return err
	}
	_, _, _, failed := d.q.counts()
	d.snapTerminal = d.ndone + failed
	d.sinceSnap = 0
	if d.wal == nil {
		return nil
	}
	d.metrics.WALCompactions.Add(1)
	if d.killHook != nil && d.killHook("mid-compact") {
		d.disarmLocked()
		return nil
	}
	// Rotation failure is harmless mid-run: the old segment stays the
	// append target (or the log degrades until the next compaction), and
	// its pre-snapshot records replay defensively.
	_ = d.wal.rotate()
	return nil
}

// disarmLocked flips the dispatcher into the simulated-crashed state:
// no further checkpoint or WAL bytes reach disk. Caller holds d.mu.
func (d *Dispatcher) disarmLocked() {
	d.killed = true
	if d.wal != nil {
		d.wal.disarm()
	}
}

// walExtendLocked logs the extension of a live lease at its new
// absolute expiry. Caller holds d.mu and has already applied the
// heartbeat to the queue.
func (d *Dispatcher) walExtendLocked(ref LeaseRef) {
	if d.wal == nil {
		return
	}
	e, ok := d.q.entries[ref.JobID]
	if !ok || e.state != stateLeased || e.leaseID != ref.LeaseID {
		return
	}
	d.wal.append(&walRecord{
		Kind:    walKindExtend,
		SpecCRC: d.wal.specCRC,
		JobID:   ref.JobID,
		LeaseID: ref.LeaseID,
		Expires: e.expires.UnixNano(),
	})
}

// sweepLocked requeues expired leases and records exhausted budgets.
// Caller holds d.mu.
func (d *Dispatcher) sweepLocked() {
	requeued, failed := d.q.sweep()
	for _, e := range requeued {
		d.metrics.LeaseRequeues.Add(1)
		d.metrics.Retries.Add(1)
		d.metrics.QueueDepth.Add(1)
		d.metrics.InFlight.Add(-1)
		d.walRequeueLocked(e)
	}
	for _, e := range failed {
		d.metrics.LeaseRequeues.Add(1)
		d.metrics.InFlight.Add(-1)
		d.walDeadLetterLocked(e)
		d.recordFailureLocked(e)
	}
	d.maybeFinishLocked()
}

// walRequeueLocked logs a return to pending with the row's absolute
// budget consumption. Caller holds d.mu.
func (d *Dispatcher) walRequeueLocked(e *queueEntry) {
	if d.wal == nil {
		return
	}
	d.wal.append(&walRecord{
		Kind:     walKindRequeue,
		SpecCRC:  d.wal.specCRC,
		JobID:    e.job.ID,
		Attempts: e.attempts,
		Err:      e.failErr,
	})
}

// walDeadLetterLocked logs a budget exhaustion. Caller holds d.mu.
func (d *Dispatcher) walDeadLetterLocked(e *queueEntry) {
	if d.wal == nil {
		return
	}
	d.wal.append(&walRecord{
		Kind:     walKindDeadLetter,
		SpecCRC:  d.wal.specCRC,
		JobID:    e.job.ID,
		Attempts: e.attempts,
		Err:      e.failErr,
	})
}

// recordFailureLocked converts an exhausted queue entry into a
// JobFailure on the totals — the dead-letter quarantine: the job is
// done retrying, its failure is part of the campaign record, and the
// OnJobFailed stream surfaces it on the status endpoint instead of a
// bare failed count. Caller holds d.mu.
func (d *Dispatcher) recordFailureLocked(e *queueEntry) {
	d.metrics.JobsFailed.Add(1)
	d.sinceSnap++
	f := JobFailure{
		JobID:    e.job.ID,
		Test:     e.job.Test,
		Tool:     e.job.Tool,
		Preset:   e.job.Preset,
		Shard:    e.job.Shard,
		Attempts: e.attempts,
		Err:      e.failErr,
	}
	d.results.AddFailure(f)
	if d.opts.OnJobFailed != nil {
		d.opts.OnJobFailed(f)
	}
}

// maybeFinishLocked finishes the run once the ledger is fully done.
// Caller holds d.mu.
func (d *Dispatcher) maybeFinishLocked() {
	if !d.finished && d.q.allDone() {
		d.finish()
	}
}

// Lease grants up to req.Max jobs (expiring overdue leases first).
func (d *Dispatcher) Lease(req LeaseRequest) LeaseResponse {
	d.mu.Lock()
	defer d.mu.Unlock()
	defer d.wal.commit()
	var resp LeaseResponse
	d.leaseLocked(req.Worker, req.Max, false, &resp)
	return resp
}

// leaseLocked grants up to max jobs to worker into resp, reusing its
// grant slice: the lease half of both Lease and an upload that asks for
// its next grants. With resend set — the upload is a retry whose first
// delivery was processed and whose reply was lost, or a lease-only
// upload from a worker that holds no grant — it first hands back
// the grants that lost reply carried and the worker still holds, under
// their nonces, and tops up with fresh grants only to max: the worker
// never learned of them, so granting anew would strand them until the
// TTL. Their grant records are already in the WAL; a re-sent grant is
// extended instead, and logs an extend record, because the worker holds
// it from the re-send, not from the lost reply — with a long retry the
// first TTL could lapse before the worker's first heartbeat is due.
// Caller holds d.mu and commits the WAL after.
func (d *Dispatcher) leaseLocked(worker string, max int, resend bool, resp *LeaseResponse) {
	*resp = LeaseResponse{Version: ProtocolVersion, TTLSec: d.ttl.Seconds(), Grants: resp.Grants[:0]}
	if d.finished {
		resp.Done = true
		return
	}
	d.sweepLocked()
	if d.finished {
		resp.Done = true
		return
	}
	if resend {
		for _, ref := range d.lastNext[worker] {
			if len(resp.Grants) < max && d.q.heartbeat(worker, ref) {
				d.walExtendLocked(ref)
				resp.Grants = append(resp.Grants, LeaseGrant{Job: d.q.entries[ref.JobID].job, LeaseID: ref.LeaseID})
			}
		}
	}
	resent := len(resp.Grants)
	if resent == 0 || resent < max { // q.lease reads max ≤ 0 as 1
		resp.Grants = d.q.lease(resp.Grants, worker, max-resent)
	}
	fresh := resp.Grants[resent:]
	if len(resp.Grants) == 0 {
		// Everything left is leased to other workers: poll again soon —
		// an expiry may free work, or the campaign may finish. Capped at a
		// second so an idle worker learns about completion promptly rather
		// than sleeping out a TTL fraction.
		resp.WaitSec = min(d.ttl.Seconds()/4, 1.0)
		return
	}
	if len(fresh) == 0 {
		return
	}
	if d.killHook != nil && d.killHook("mid-grant") {
		// Simulated crash between deciding the grants and logging them:
		// the worker receives leases the restarted dispatcher never heard
		// of — its uploads must still merge exactly once.
		d.disarmLocked()
	}
	if d.wal != nil {
		for _, g := range fresh {
			d.wal.append(&walRecord{
				Kind:    walKindGrant,
				SpecCRC: d.wal.specCRC,
				JobID:   g.Job.ID,
				LeaseID: g.LeaseID,
				Worker:  worker,
				Expires: d.q.entries[g.Job.ID].expires.UnixNano(),
			})
		}
	}
	n := int64(len(fresh))
	d.metrics.LeasesGranted.Add(n)
	d.metrics.QueueDepth.Add(-n)
	d.metrics.InFlight.Add(n)
}

// Complete merges a batch a fleet worker uploaded; payloadBytes is its
// encoded size. Only wire uploads feed the received-bytes counter and
// the batch-size histogram — in-process executors report through
// complete — and the histogram only those that carry results.
func (d *Dispatcher) Complete(req CompleteRequest, payloadBytes int) CompleteResponse {
	d.metrics.WireBytesRecv.Add(int64(payloadBytes))
	if len(req.Results) > 0 {
		d.metrics.WireBatch.Observe(len(req.Results))
	}
	return d.complete(req, nil)
}

// complete merges one executor's report: results behind the completion
// fence, failures against retry budgets, releases back to the queue, and
// piggybacked heartbeats into lease extensions. A report with Lease set
// ends with the grants it asks for, under the same lock hold and WAL
// commit, written into next (nil allocates one) and returned as
// resp.Next; a re-delivered report gets the grants its first delivery
// was answered with (see leaseLocked).
func (d *Dispatcher) complete(req CompleteRequest, next *LeaseResponse) CompleteResponse {
	d.mu.Lock()
	defer d.mu.Unlock()
	defer d.wal.commit()
	var resp CompleteResponse
	for _, wr := range req.Results {
		if wr.Result == nil || !d.resultMatchesJob(wr.Result) {
			resp.Invalid++
			continue
		}
		if d.done[wr.Result.JobID] != nil {
			// Already merged. Uploads are idempotent keyed by lease nonce:
			// a re-delivery of the very upload that merged (the worker
			// retried after a dropped response, or the chaos layer
			// duplicated the request) is acknowledged as a duplicate, while
			// a competing holder's copy — or an upload for a job restored
			// from a checkpoint, whose rebuilt queue carries no lease — is
			// fenced. Either way nothing double-merges.
			if nonce, ok := d.mergedLease[wr.Result.JobID]; ok && nonce == wr.LeaseID {
				d.metrics.DuplicateUploads.Add(1)
				resp.Duplicate++
			} else {
				d.metrics.ResultsFenced.Add(1)
				resp.Fenced++
			}
			continue
		}
		wasLeased := d.leasedLocked(wr.Result.JobID)
		accepted, fenced := d.q.complete(LeaseRef{JobID: wr.Result.JobID, LeaseID: wr.LeaseID})
		switch {
		case accepted:
			// The ledger, not the executor, knows how many attempts the
			// job consumed before this one.
			wr.Result.Retries = d.q.entries[wr.Result.JobID].attempts
			d.mergedLease[wr.Result.JobID] = wr.LeaseID
			d.mergeLocked(wr.Result, wasLeased)
			resp.Merged++
			if d.killHook != nil && d.killHook("pre-wal-complete") {
				// Simulated crash after the in-memory merge but before the
				// completion hits the log: the restarted dispatcher re-leases
				// the job, and determinism makes the re-run's upload
				// byte-identical to the merge that was lost.
				d.disarmLocked()
			}
			if d.wal != nil {
				d.wal.append(&walRecord{
					Kind:    walKindComplete,
					SpecCRC: d.wal.specCRC,
					JobID:   wr.Result.JobID,
					LeaseID: wr.LeaseID,
					Result:  wr.Result,
				})
			}
		case fenced:
			d.metrics.ResultsFenced.Add(1)
			resp.Fenced++
		default:
			resp.Invalid++
		}
	}
	for _, wf := range req.Failures {
		requeued, failed := d.q.fail(req.Worker, LeaseRef{JobID: wf.JobID, LeaseID: wf.LeaseID}, wf.Err)
		switch {
		case requeued:
			d.metrics.Retries.Add(1)
			d.metrics.LeaseRequeues.Add(1)
			d.metrics.QueueDepth.Add(1)
			d.metrics.InFlight.Add(-1)
			if e, ok := d.q.entries[wf.JobID]; ok {
				d.walRequeueLocked(e)
			}
			resp.Requeued++
		case failed:
			d.metrics.InFlight.Add(-1)
			if e, ok := d.q.entries[wf.JobID]; ok {
				d.walDeadLetterLocked(e)
				d.recordFailureLocked(e)
			}
			resp.Failed++
		}
	}
	for _, ref := range req.Released {
		if d.q.release(req.Worker, ref) {
			d.metrics.QueueDepth.Add(1)
			d.metrics.InFlight.Add(-1)
			if e, ok := d.q.entries[ref.JobID]; ok {
				d.walRequeueLocked(e)
			}
			resp.Requeued++
		}
	}
	// Piggybacked heartbeats last: the leases the worker still holds get
	// extended in the same exchange that delivered its finished shards.
	for _, ref := range req.Heartbeat {
		if d.q.heartbeat(req.Worker, ref) {
			resp.Extended++
			d.metrics.Heartbeats.Add(1)
			d.walExtendLocked(ref)
		}
	}
	d.checkpointLocked()
	d.maybeFinishLocked()
	if req.Lease > 0 {
		if next == nil {
			next = new(LeaseResponse)
		}
		// Every result a same-lease duplicate and nothing else taking
		// effect: a retry of an upload already processed, whose reply —
		// and the grants in it — the worker never got. A lease-only
		// upload counts too: a worker sends one only when it holds no
		// grant, so any of its last Next still leased to it was lost.
		replay := len(req.Results) > 0 && resp.Duplicate == len(req.Results) && resp.Requeued == 0 && resp.Failed == 0 ||
			req.leaseOnly()
		d.leaseLocked(req.Worker, req.Lease, replay, next)
		refs := d.lastNext[req.Worker][:0]
		for _, g := range next.Grants {
			refs = append(refs, LeaseRef{JobID: g.Job.ID, LeaseID: g.LeaseID})
		}
		d.lastNext[req.Worker] = refs
		resp.Next = next
	} else {
		delete(d.lastNext, req.Worker)
	}
	resp.Done = d.finished
	return resp
}

// leasedLocked reports whether the job is currently in the leased
// state (for in-flight accounting). Caller holds d.mu.
func (d *Dispatcher) leasedLocked(jobID int) bool {
	e, ok := d.q.entries[jobID]
	return ok && e.state == stateLeased
}

// resultMatchesJob cross-checks an uploaded result against the job's
// identity, exactly like checkpoint restoration does: a result whose
// fields contradict the job expansion would corrupt the totals.
func (d *Dispatcher) resultMatchesJob(jr *JobResult) bool {
	if jr.JobID < 0 || jr.JobID >= len(d.camp.jobs) {
		return false
	}
	job := d.camp.jobs[jr.JobID]
	return job.Test == jr.Test && job.Tool == jr.Tool && job.Preset == jr.Preset &&
		job.Shard == jr.Shard && job.N == jr.N && job.Seed == jr.Seed
}

// mergeLocked folds one accepted result into the totals and the
// snapshot interval. Caller holds d.mu.
func (d *Dispatcher) mergeLocked(jr *JobResult, wasLeased bool) {
	d.results.Add(jr)
	d.markDoneLocked(jr)
	d.sinceSnap++
	d.metrics.JobsCompleted.Add(1)
	d.metrics.Iterations.Add(int64(jr.N))
	// TraceVerifyNs is json:"-" so it arrives zero from remote workers:
	// checking time is accounted where the checking ran.
	d.metrics.TracesVerified.Add(jr.TracesVerified)
	d.metrics.TraceViolations.Add(jr.TraceViolations)
	d.metrics.TraceVerifyNs.Add(jr.TraceVerifyNs)
	if wasLeased {
		d.metrics.InFlight.Add(-1)
	} else {
		// The job had already requeued (expired lease) when its original
		// holder reported: it leaves the pending set instead.
		d.metrics.QueueDepth.Add(-1)
	}
	if d.opts.OnJobDone != nil {
		d.opts.OnJobDone(jr)
	}
}

// doneMark is what done holds for a merged job when no snapshot will
// ever need its encoding.
var doneMark = []byte{}

// markDoneLocked records jr's job as done: with a checkpoint, by its
// snapshot encoding. Caller holds d.mu (or is the constructor).
func (d *Dispatcher) markDoneLocked(jr *JobResult) {
	if d.snap != nil {
		d.done[jr.JobID] = encodeResult(jr)
	} else {
		d.done[jr.JobID] = doneMark
	}
	d.ndone++
}

// Status summarizes the ledger for the status endpoint. Done counts
// merged results (checkpoint-restored ones included — they never enter
// the lease queue) plus permanently failed jobs.
func (d *Dispatcher) Status() (pending, leased, done, failed int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	pending, leased, _, failed = d.q.counts()
	done = d.ndone + failed
	return pending, leased, done, failed
}

// LeaseGauges reports the autoscaling signals for the metrics endpoint:
// how many leases are live and how long the oldest has been out. A
// growing oldest-lease age with steady queue depth means a worker is
// stuck or the TTL is too generous.
func (d *Dispatcher) LeaseGauges() (active int, oldestAge time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, leased, _, _ := d.q.counts()
	if t, ok := d.q.oldestLeaseGrant(); ok {
		if age := d.now().Sub(t); age > 0 {
			oldestAge = age
		}
	}
	return leased, oldestAge
}

// String identifies the dispatcher in logs.
func (d *Dispatcher) String() string {
	return fmt.Sprintf("dispatcher(%d jobs, ttl %s)", len(d.camp.jobs), d.ttl)
}

// Run executes the campaign in-process: a Dispatcher plus Spec.Workers
// executors that call complete directly, each call reporting one job and
// leasing the next — no HTTP, no codec, no heartbeats. Jobs restored
// from the checkpoint are skipped, failed jobs requeue against
// Spec.MaxRetries, and results merge as they land.
//
// Cancelling ctx interrupts the run, it does not cancel the campaign:
// in-flight jobs abort and their leases go back to pending, so only
// whole jobs ever reach the totals or the checkpoint, and the closing
// snapshot records no cancellation — rerunning with the same checkpoint
// resumes. Run then returns the totals accumulated so far together with
// ctx's error.
func (c *Campaign) Run(ctx context.Context, opts Options) (*Results, error) {
	d, err := newDispatcher(c, 0, opts)
	if err != nil {
		return nil, err
	}
	x := &jobExec{tests: c.tests, spec: c.Spec, run: d.opts.runJob}
	var wg sync.WaitGroup
	for i := 0; i < c.Spec.Workers; i++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			d.execute(ctx, x, new(workspace), name)
		}(fmt.Sprintf("local-%d", i))
	}
	wg.Wait()
	// Every executor has returned: the run either finished or was
	// interrupted. finish is idempotent, and persists an interrupted
	// run's progress without the cancellation a Cancel would record.
	d.mu.Lock()
	d.finish()
	res, err := d.results, d.checkpointErr
	d.mu.Unlock()
	if err != nil {
		return res, err
	}
	return res, ctx.Err()
}

// execute is one in-process executor: each exchange reports the last
// job's outcome and takes the next grant, and the granted job runs on
// the executor's workspace, until ctx is cancelled or no job is left to
// lease. An executor that gets no grant while its peers still hold
// leases exits rather than waiting: a peer whose job fails re-leases
// the requeued job itself in its next exchange, so nothing is stranded.
func (d *Dispatcher) execute(ctx context.Context, x *jobExec, ws *workspace, name string) {
	// One report buffer and one lease buffer per executor: complete keeps
	// none of req's slices and refills next's grant slice in place.
	req := CompleteRequest{Worker: name}
	var next LeaseResponse
	for {
		req.Lease = 0
		if ctx.Err() == nil {
			req.Lease = 1
		}
		next.Grants = next.Grants[:0]
		d.complete(req, &next)
		if len(next.Grants) == 0 {
			return
		}
		g := next.Grants[0]
		req.Results, req.Failures, req.Released = req.Results[:0], req.Failures[:0], req.Released[:0]
		switch r, f := x.exec(ctx, ws, g); {
		case r.Result != nil:
			req.Results = append(req.Results, r)
		case f != nil:
			req.Failures = append(req.Failures, *f)
		default:
			// Aborted by ctx: hand the lease back unconsumed.
			req.Released = append(req.Released, LeaseRef{JobID: g.Job.ID, LeaseID: g.LeaseID})
		}
	}
}
