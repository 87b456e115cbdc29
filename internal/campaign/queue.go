package campaign

import (
	"sort"
	"time"
)

// Lease state machine, per job:
//
//	pending ──grant──▶ leased ──complete──▶ done
//	   ▲                  │
//	   └─────requeue──────┘   (expiry or failure: attempts++; release: attempts kept;
//	                           attempts > MaxRetries ▶ dead-letter: done, failed)
//
// A lease carries a nonce (leaseID) that increases with every grant, so
// a late report from a superseded lease is distinguishable from the
// current holder's. Completion applies a first-writer-wins fence on the
// job, not the lease: shard results are deterministic functions of the
// shard seed, so whichever copy of a twice-leased job reports first is
// merged and every later report is dropped — never double-merged.
//
// Every transition is a walRecord. The decision methods (grant, extend,
// complete, fail, release, sweep) read the ledger and the time they are
// handed and fill in the record of a transition, changing no row; apply
// performs a record and is the only code that changes a row's lease
// fields. A dispatcher applies each record it decides and appends it to
// the WAL, and a restart replays the log through the same apply, so the
// live ledger and the recovered one are made by the same code.
type leaseState int

const (
	statePending leaseState = iota
	stateLeased
	stateDone
)

// queueEntry is one job's ledger row.
type queueEntry struct {
	job      Job
	state    leaseState
	leaseID  int64  // nonce of the newest grant
	worker   string // holder of the newest grant
	expires  time.Time
	attempts int  // expired or failed attempts consumed from the retry budget
	failed   bool // done because the budget ran out, not because a result landed
	failErr  string
	// grantedAt is when the newest grant was handed out, for the
	// oldest-lease-age gauge. It is metrics-only and not persisted: apply
	// derives it from the grant as expires − TTL.
	grantedAt time.Time
}

// leaseQueue is the dispatcher's job ledger. It is not safe for
// concurrent use; the Dispatcher serializes access under its mutex.
// It holds no clock: decisions that depend on time take it as an
// argument. Grants and requeues are deterministic: pending jobs are
// kept sorted by job ID and granted lowest-ID first, and a requeued job
// re-enters at its ID's sorted position, so a fixed sequence of
// lease/expire events always hands out the same jobs in the same order.
//
// Two summaries keep the per-call cost of the dispatcher's hot path
// independent of the campaign's size: per-state row counts, maintained
// by setState (every state change goes through it), and nextExpiry, a
// lower bound on the expiry of every live lease, maintained by
// noteExpiry (every write of expires goes through it). sweep skips its
// scan while the bound lies in the future, since no lease can have
// expired then.
type leaseQueue struct {
	entries    map[int]*queueEntry
	ids        []int // all job IDs, sorted, for deterministic sweeps
	pending    []int // pending job IDs, sorted ascending
	ttl        time.Duration
	maxRetries int
	nextLease  int64

	// nPending, nLeased and nDone count rows per state; nFailed counts
	// the done rows that are dead letters. Rows in an unknown state (a
	// damaged snapshot) count nowhere, exactly as a scan would see them.
	nPending, nLeased, nDone, nFailed int
	// nextExpiry is at or before the expiry of every leased row; zero
	// means no row has been leased since the last scan.
	nextExpiry time.Time
}

// newLeaseQueueFromRows builds a ledger from rows, each becoming the
// row it describes, byte for byte of observable state; a fresh campaign
// is one pending row per job. jobs is the campaign's full job list,
// indexed by job ID; rows referencing jobs outside it are dropped
// (validateRestored already rejected such snapshots for the done set),
// and a repeated row replaces the earlier one. Restored leases keep
// their nonce, holder, and expiry — if the worker is still alive it
// heartbeats the same lease onward; if not, the ordinary sweep requeues
// it when the clock passes the restored deadline.
func newLeaseQueueFromRows(jobs []Job, rows []LedgerRow, ttl time.Duration, maxRetries int, nextLease int64) *leaseQueue {
	q := &leaseQueue{
		entries:    make(map[int]*queueEntry, len(rows)),
		ids:        make([]int, 0, len(rows)),
		pending:    make([]int, 0, len(rows)),
		ttl:        ttl,
		maxRetries: maxRetries,
		nextLease:  nextLease,
	}
	entries := make([]queueEntry, len(rows)) // one allocation for every row
	for i, row := range rows {
		if row.JobID < 0 || row.JobID >= len(jobs) || jobs[row.JobID].ID != row.JobID {
			continue
		}
		e := &entries[i]
		*e = queueEntry{
			job:      jobs[row.JobID],
			state:    leaseState(row.State),
			attempts: row.Attempts,
			failed:   row.Failed,
			failErr:  row.FailErr,
		}
		if e.state == stateLeased {
			e.leaseID = row.LeaseID
			e.worker = row.Worker
			e.expires = time.Unix(0, row.Expires)
			e.grantedAt = e.expires.Add(-ttl)
			q.noteExpiry(e.expires)
			q.nextLease = max(q.nextLease, row.LeaseID)
		}
		if old, dup := q.entries[row.JobID]; dup {
			q.tally(old, -1)
		}
		q.tally(e, +1)
		q.entries[row.JobID] = e
		q.ids = append(q.ids, row.JobID)
		if e.state == statePending {
			q.pending = append(q.pending, row.JobID)
		}
	}
	sort.Ints(q.ids)
	sort.Ints(q.pending)
	return q
}

// tally adds delta to the count of e's current state.
func (q *leaseQueue) tally(e *queueEntry, delta int) {
	switch e.state {
	case statePending:
		q.nPending += delta
	case stateLeased:
		q.nLeased += delta
	case stateDone:
		q.nDone += delta
		if e.failed {
			q.nFailed += delta
		}
	}
}

// setState moves e to state s, keeping the per-state counts. A move
// into stateDone must set e.failed first: the flag is counted with the
// done state and never changes while a row is done.
func (q *leaseQueue) setState(e *queueEntry, s leaseState) {
	q.tally(e, -1)
	e.state = s
	q.tally(e, +1)
}

// noteExpiry records that a leased row now expires at t.
func (q *leaseQueue) noteExpiry(t time.Time) {
	if q.nextExpiry.IsZero() || t.Before(q.nextExpiry) {
		q.nextExpiry = t
	}
}

// insertPending adds a job to the pending set at its sorted position.
func (q *leaseQueue) insertPending(id int) {
	i := sort.SearchInts(q.pending, id)
	q.pending = append(q.pending, 0)
	copy(q.pending[i+1:], q.pending[i:])
	q.pending[i] = id
}

// dropPending removes id from the pending set if present. The head,
// which every live grant takes, goes without a shift.
func (q *leaseQueue) dropPending(id int) {
	if len(q.pending) > 0 && q.pending[0] == id {
		q.pending = q.pending[1:]
		return
	}
	i := sort.SearchInts(q.pending, id)
	if i < len(q.pending) && q.pending[i] == id {
		q.pending = append(q.pending[:i], q.pending[i+1:]...)
	}
}

// apply performs one ledger transition and reports whether it took
// effect. Records are absolute ("the row became this"), so apply is
// defensive: a record for an unknown or done row does nothing, and an
// extend lands only on the live lease it names. Replaying a log suffix
// that partially overlaps a newer snapshot therefore converges — the
// last record per job wins, and done rows are never reopened. apply
// never consults a clock; replay is purely record-driven, which is what
// makes it deterministic.
func (q *leaseQueue) apply(rec *walRecord) bool {
	e, ok := q.entries[rec.JobID]
	if !ok || e.state == stateDone {
		return false
	}
	switch rec.Kind {
	case walKindGrant:
		q.dropPending(rec.JobID)
		q.setState(e, stateLeased)
		e.leaseID, e.worker = rec.LeaseID, rec.Worker
		e.expires = time.Unix(0, rec.Expires)
		e.grantedAt = e.expires.Add(-q.ttl)
		q.noteExpiry(e.expires)
		q.nextLease = max(q.nextLease, rec.LeaseID)
	case walKindExtend:
		if e.state != stateLeased || e.leaseID != rec.LeaseID {
			return false
		}
		e.expires = time.Unix(0, rec.Expires)
		q.noteExpiry(e.expires)
	case walKindComplete:
		if e.state == statePending {
			// A requeued job completed by its pre-expiry holder: pull it
			// back out of the pending set.
			q.dropPending(rec.JobID)
		}
		e.failed = false
		q.setState(e, stateDone)
	case walKindRequeue:
		if e.state != statePending {
			q.insertPending(rec.JobID)
		}
		q.setState(e, statePending)
		e.attempts, e.failErr = rec.Attempts, rec.Err
	case walKindDeadLetter:
		q.dropPending(rec.JobID)
		e.failed = true
		q.setState(e, stateDone)
		e.attempts, e.failErr = rec.Attempts, rec.Err
	default:
		return false
	}
	return true
}

// grant decides a lease of the lowest pending job to worker at now,
// under a fresh nonce and the queue's TTL, or reports false when no job
// is pending.
func (q *leaseQueue) grant(rec *walRecord, worker string, now time.Time) bool {
	if len(q.pending) == 0 {
		return false
	}
	*rec = walRecord{Kind: walKindGrant, JobID: q.pending[0], LeaseID: q.nextLease + 1, Worker: worker, Expires: now.Add(q.ttl).UnixNano()}
	return true
}

// held returns ref's row iff worker holds its current lease: reports
// against a superseded or finished lease, or from another worker, do
// nothing.
func (q *leaseQueue) held(worker string, ref LeaseRef) *queueEntry {
	e, ok := q.entries[ref.JobID]
	if !ok || e.state != stateLeased || e.leaseID != ref.LeaseID || e.worker != worker {
		return nil
	}
	return e
}

// extend decides a heartbeat: the lease, if worker still holds it,
// runs a TTL past now. extend does not check the clock against the
// lease — dispatchers sweep before they extend, so "expired" is decided
// at one point instead of two racing ones.
func (q *leaseQueue) extend(rec *walRecord, worker string, ref LeaseRef, now time.Time) bool {
	if q.held(worker, ref) == nil {
		return false
	}
	*rec = walRecord{Kind: walKindExtend, JobID: ref.JobID, LeaseID: ref.LeaseID, Expires: now.Add(q.ttl).UnixNano()}
	return true
}

// complete decides a job's first reported result. The fence is the done
// state: a second report — from the original holder of an expired lease
// or from its replacement, whichever comes later — returns fenced.
// Stale-lease results for a not-yet-done job are accepted: results are
// deterministic per shard seed, so the early copy is byte-equal to the
// one the current holder would upload.
func (q *leaseQueue) complete(rec *walRecord, ref LeaseRef, jr *JobResult) (accepted, fenced bool) {
	e, ok := q.entries[ref.JobID]
	if !ok {
		return false, false
	}
	if e.state == stateDone {
		return false, true
	}
	*rec = walRecord{Kind: walKindComplete, JobID: ref.JobID, LeaseID: ref.LeaseID, Result: jr}
	return true, false
}

// retry decides e's return to pending with one more attempt consumed,
// or its dead letter once that attempt exhausts the budget.
func (q *leaseQueue) retry(rec *walRecord, e *queueEntry, err string) {
	*rec = walRecord{Kind: walKindRequeue, JobID: e.job.ID, Attempts: e.attempts + 1, Err: err}
	if rec.Attempts > q.maxRetries {
		rec.Kind = walKindDeadLetter
	}
}

// fail decides a worker-reported execution failure against the retry
// budget.
func (q *leaseQueue) fail(rec *walRecord, worker string, ref LeaseRef, msg string) bool {
	e := q.held(worker, ref)
	if e == nil {
		return false
	}
	q.retry(rec, e, msg)
	return true
}

// release decides the return of an unstarted lease without consuming
// retry budget (graceful worker drain, or an in-process run recovering
// its ledger).
func (q *leaseQueue) release(rec *walRecord, worker string, ref LeaseRef) bool {
	e := q.held(worker, ref)
	if e == nil {
		return false
	}
	*rec = walRecord{Kind: walKindRequeue, JobID: ref.JobID, Attempts: e.attempts, Err: e.failErr}
	return true
}

// sweep decides the expiry of every lease overdue at now: each goes
// back to pending with one attempt consumed, or dead-letters when the
// budget is exhausted. Rows are visited in job-ID order, so the outcome
// is deterministic, and each decision is filled into rec and handed to
// commit, which applies it before the next row is decided. A zero-TTL
// queue serves in-process executors, which cannot vanish without the
// process: its leases never expire, however long a job runs.
//
// While nextExpiry lies after now no lease can have expired, and sweep
// returns without a scan; a scan recomputes the bound from the leases
// it leaves live.
func (q *leaseQueue) sweep(rec *walRecord, now time.Time, commit func(*walRecord)) {
	if q.ttl == 0 || q.nextExpiry.IsZero() || q.nextExpiry.After(now) {
		return
	}
	q.nextExpiry = time.Time{}
	for _, id := range q.ids {
		e := q.entries[id]
		if e.state != stateLeased {
			continue
		}
		if e.expires.After(now) {
			q.noteExpiry(e.expires)
			continue
		}
		q.retry(rec, e, e.failErr)
		if rec.Kind == walKindDeadLetter && rec.Err == "" {
			rec.Err = "lease expired"
		}
		commit(rec)
	}
}

// counts reports the ledger's aggregate state.
func (q *leaseQueue) counts() (pending, leased, done, failed int) {
	return q.nPending, q.nLeased, q.nDone, q.nFailed
}

// allDone reports whether every job reached the done state.
func (q *leaseQueue) allDone() bool {
	return q.nDone == len(q.entries)
}

// oldestLeaseGrant returns the earliest grantedAt among live leases,
// for the oldest-lease-age gauge.
func (q *leaseQueue) oldestLeaseGrant() (time.Time, bool) {
	var oldest time.Time
	found := false
	for _, e := range q.entries {
		if e.state != stateLeased || e.grantedAt.IsZero() {
			continue
		}
		if !found || e.grantedAt.Before(oldest) {
			oldest = e.grantedAt
			found = true
		}
	}
	return oldest, found
}

// ledgerRows appends every row in job-ID order to dst, for the
// checkpoint's ledger section (WAL compaction); a dispatcher passes
// rows from its ledger pool, so a save reuses their backing array.
func (q *leaseQueue) ledgerRows(dst []LedgerRow) []LedgerRow {
	rows := dst
	if rows == nil {
		rows = make([]LedgerRow, 0, len(q.ids)) // never nil: the section reads "rows":[]
	}
	for _, id := range q.ids {
		e := q.entries[id]
		row := LedgerRow{
			JobID:    id,
			State:    int(e.state),
			Attempts: e.attempts,
			Failed:   e.failed,
			FailErr:  e.failErr,
		}
		if e.state == stateLeased {
			row.LeaseID = e.leaseID
			row.Worker = e.worker
			row.Expires = e.expires.UnixNano()
		}
		rows = append(rows, row)
	}
	return rows
}
