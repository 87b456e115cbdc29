package campaign

import (
	"slices"
	"sort"
	"time"
)

// Lease state machine, per job:
//
//	pending ──lease──▶ leased ──complete──▶ done
//	   ▲                  │
//	   └──expire/fail─────┘   (attempts++; attempts > MaxRetries ▶ done, failed)
//
// A lease carries a nonce (leaseID) that increases with every grant, so
// a late report from a superseded lease is distinguishable from the
// current holder's. Completion applies a first-writer-wins fence on the
// job, not the lease: shard results are deterministic functions of the
// shard seed, so whichever copy of a twice-leased job reports first is
// merged and every later report is dropped — never double-merged.
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
	// oldest-lease-age gauge. It is metrics-only and not persisted; a
	// restored lease approximates it as expires − TTL.
	grantedAt time.Time
}

// leaseQueue is the dispatcher's job ledger. It is not safe for
// concurrent use; the Dispatcher serializes access under its mutex.
// Grants and requeues are deterministic: pending jobs are kept sorted by
// job ID and granted lowest-ID first, and a requeued job re-enters at
// its ID's sorted position, so a fixed sequence of lease/expire events
// always hands out the same jobs in the same order.
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
	now        func() time.Time

	// nPending, nLeased and nDone count rows per state; nFailed counts
	// the done rows that are dead letters. Rows in an unknown state (a
	// damaged snapshot) count nowhere, exactly as a scan would see them.
	nPending, nLeased, nDone, nFailed int
	// nextExpiry is at or before the expiry of every leased row; zero
	// means no row has been leased since the last scan.
	nextExpiry time.Time
}

func newLeaseQueue(jobs []Job, ttl time.Duration, maxRetries int, now func() time.Time) *leaseQueue {
	q := &leaseQueue{
		entries:    make(map[int]*queueEntry, len(jobs)),
		ttl:        ttl,
		maxRetries: maxRetries,
		now:        now,
	}
	rows := make([]queueEntry, len(jobs)) // one allocation for every row
	for i, job := range jobs {
		rows[i].job = job
		q.entries[job.ID] = &rows[i]
		q.ids = append(q.ids, job.ID)
		q.pending = append(q.pending, job.ID)
	}
	q.nPending = len(jobs)
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

// requeue returns a job to the pending set at its sorted position.
func (q *leaseQueue) requeue(id int) {
	i := sort.SearchInts(q.pending, id)
	q.pending = append(q.pending, 0)
	copy(q.pending[i+1:], q.pending[i:])
	q.pending[i] = id
}

// sweep expires overdue leases: each goes back to pending with one
// attempt consumed, or to done/failed when the budget is exhausted.
// Entries are visited in job-ID order so the outcome of a sweep is
// deterministic. It returns the requeued and newly failed entries. A
// zero-TTL queue serves in-process executors, which cannot vanish
// without the process: its leases never expire, however long a job
// runs.
//
// While nextExpiry lies after now no lease can have expired, and sweep
// returns without a scan; a scan recomputes the bound from the leases
// it leaves live.
func (q *leaseQueue) sweep() (requeued []*queueEntry, failed []*queueEntry) {
	if q.ttl == 0 || q.nextExpiry.IsZero() {
		return nil, nil
	}
	now := q.now()
	if q.nextExpiry.After(now) {
		return nil, nil
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
		e.attempts++
		if e.attempts > q.maxRetries {
			e.failed = true
			q.setState(e, stateDone)
			if e.failErr == "" {
				e.failErr = "lease expired"
			}
			failed = append(failed, e)
			continue
		}
		q.setState(e, statePending)
		q.requeue(id)
		requeued = append(requeued, e)
	}
	return requeued, failed
}

// releaseLeased returns every leased row to pending without consuming
// retry budget (an in-process run recovering its ledger).
func (q *leaseQueue) releaseLeased() {
	for _, id := range q.ids {
		if e := q.entries[id]; e.state == stateLeased {
			q.setState(e, statePending)
			q.requeue(id)
		}
	}
}

// lease grants up to max pending jobs to worker, lowest job ID first,
// stamping each with a fresh lease nonce and the queue's TTL, and
// appends the grants to dst (an executor reusing its grant slice
// allocates nothing here).
func (q *leaseQueue) lease(dst []LeaseGrant, worker string, max int) []LeaseGrant {
	if max <= 0 {
		max = 1
	}
	n := min(max, len(q.pending))
	if n == 0 {
		return dst
	}
	now := q.now()
	expires := now.Add(q.ttl)
	granted := slices.Grow(dst, n)
	for _, id := range q.pending[:n] {
		e := q.entries[id]
		q.nextLease++
		q.setState(e, stateLeased)
		e.leaseID = q.nextLease
		e.worker = worker
		e.expires = expires
		e.grantedAt = now
		granted = append(granted, LeaseGrant{Job: e.job, LeaseID: e.leaseID})
	}
	q.noteExpiry(expires)
	q.pending = q.pending[n:]
	return granted
}

// heartbeat extends a lease iff the caller still holds its current
// nonce; a heartbeat for a superseded or finished lease is a no-op.
func (q *leaseQueue) heartbeat(worker string, ref LeaseRef) bool {
	e, ok := q.entries[ref.JobID]
	if !ok || e.state != stateLeased || e.leaseID != ref.LeaseID || e.worker != worker {
		return false
	}
	e.expires = q.now().Add(q.ttl)
	q.noteExpiry(e.expires)
	return true
}

// complete marks a job done on its first reported result. The fence is
// the done state: a second report — from the original holder of an
// expired lease or from its replacement, whichever comes later — returns
// fenced. Stale-lease results for a not-yet-done job are accepted:
// results are deterministic per shard seed, so the early copy is
// byte-equal to the one the current holder would upload.
func (q *leaseQueue) complete(ref LeaseRef) (accepted, fenced bool) {
	e, ok := q.entries[ref.JobID]
	if !ok {
		return false, false
	}
	if e.state == stateDone {
		return false, true
	}
	if e.state == statePending {
		// A requeued job completed by its pre-expiry holder: pull it back
		// out of the pending set.
		q.dropPending(ref.JobID)
	}
	e.failed = false
	q.setState(e, stateDone)
	return true, false
}

// fail records a worker-reported execution failure against the retry
// budget: requeue while budget remains, else done/failed. Reports
// against a superseded lease are ignored (the replacement is already
// running or queued).
func (q *leaseQueue) fail(worker string, ref LeaseRef, msg string) (requeuedNow, failedNow bool) {
	e, ok := q.entries[ref.JobID]
	if !ok || e.state != stateLeased || e.leaseID != ref.LeaseID || e.worker != worker {
		return false, false
	}
	e.attempts++
	e.failErr = msg
	if e.attempts > q.maxRetries {
		e.failed = true
		q.setState(e, stateDone)
		return false, true
	}
	q.setState(e, statePending)
	q.requeue(ref.JobID)
	return true, false
}

// release hands an unstarted lease back without consuming retry budget
// (graceful worker drain). Superseded leases are ignored.
func (q *leaseQueue) release(worker string, ref LeaseRef) bool {
	e, ok := q.entries[ref.JobID]
	if !ok || e.state != stateLeased || e.leaseID != ref.LeaseID || e.worker != worker {
		return false
	}
	q.setState(e, statePending)
	q.requeue(ref.JobID)
	return true
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

// newLeaseQueueFromRows rebuilds a ledger from checkpointed rows: each
// row becomes the row it describes, byte for byte of observable state.
// jobs is the campaign's full job list; rows referencing jobs outside
// it are dropped (validateRestored already rejected such snapshots for
// the done set). Restored leases keep their nonce, holder, and expiry —
// if the worker is still alive it heartbeats the same lease onward; if
// not, the ordinary sweep requeues it when the clock passes the
// restored deadline.
func newLeaseQueueFromRows(jobs []Job, rows []LedgerRow, ttl time.Duration, maxRetries int, nextLease int64, now func() time.Time) *leaseQueue {
	byID := make(map[int]Job, len(jobs))
	for _, job := range jobs {
		byID[job.ID] = job
	}
	q := &leaseQueue{
		entries:    make(map[int]*queueEntry, len(rows)),
		ttl:        ttl,
		maxRetries: maxRetries,
		nextLease:  nextLease,
		now:        now,
	}
	for _, row := range rows {
		job, ok := byID[row.JobID]
		if !ok {
			continue
		}
		e := &queueEntry{
			job:      job,
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
			if row.LeaseID > q.nextLease {
				q.nextLease = row.LeaseID
			}
		}
		if old, dup := q.entries[row.JobID]; dup {
			q.tally(old, -1) // a repeated row replaces the earlier one
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

// dropPending removes id from the pending list if present.
func (q *leaseQueue) dropPending(id int) {
	i := sort.SearchInts(q.pending, id)
	if i < len(q.pending) && q.pending[i] == id {
		q.pending = append(q.pending[:i], q.pending[i+1:]...)
	}
}

// WAL replay application. Each method applies one logged transition
// defensively: records are absolute ("the row became this"), so
// replaying a suffix that partially overlaps a newer snapshot converges
// — the last record per job wins, and records for rows already done are
// skipped. None of these consult the clock; replay is purely
// record-driven, which is what makes it deterministic.

// applyGrant re-imposes a logged grant.
func (q *leaseQueue) applyGrant(jobID int, leaseID int64, worker string, expires time.Time) bool {
	e, ok := q.entries[jobID]
	if !ok || e.state == stateDone {
		return false
	}
	q.dropPending(jobID)
	q.setState(e, stateLeased)
	e.leaseID = leaseID
	e.worker = worker
	e.expires = expires
	q.noteExpiry(expires)
	e.grantedAt = expires.Add(-q.ttl)
	if leaseID > q.nextLease {
		q.nextLease = leaseID
	}
	return true
}

// applyExtend re-imposes a logged heartbeat extension.
func (q *leaseQueue) applyExtend(jobID int, leaseID int64, expires time.Time) bool {
	e, ok := q.entries[jobID]
	if !ok || e.state != stateLeased || e.leaseID != leaseID {
		return false
	}
	e.expires = expires
	q.noteExpiry(expires)
	return true
}

// applyRequeue re-imposes a logged return to pending with its absolute
// budget consumption.
func (q *leaseQueue) applyRequeue(jobID, attempts int, failErr string) bool {
	e, ok := q.entries[jobID]
	if !ok || e.state == stateDone {
		return false
	}
	if e.state != statePending {
		q.requeue(jobID)
	}
	q.setState(e, statePending)
	e.attempts = attempts
	e.failErr = failErr
	return true
}

// applyDeadLetter re-imposes a logged budget exhaustion. The caller
// records the JobFailure on the totals when this reports true.
func (q *leaseQueue) applyDeadLetter(jobID, attempts int, failErr string) (*queueEntry, bool) {
	e, ok := q.entries[jobID]
	if !ok || e.state == stateDone {
		return nil, false
	}
	q.dropPending(jobID)
	e.failed = true
	q.setState(e, stateDone)
	e.attempts = attempts
	e.failErr = failErr
	return e, true
}
