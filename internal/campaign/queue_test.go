package campaign

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// newTestQueue builds a two-job ledger and the clock its tests move.
func newTestQueue(maxRetries int) (*leaseQueue, *time.Time) {
	now := time.Unix(0, 0)
	q := newQueue([]Job{{ID: 0}, {ID: 1}}, time.Minute, maxRetries)
	return q, &now
}

// newQueue builds a ledger of jobs, all pending, from rows.
func newQueue(jobs []Job, ttl time.Duration, maxRetries int) *leaseQueue {
	rows := make([]LedgerRow, len(jobs))
	for i, job := range jobs {
		rows[i] = LedgerRow{JobID: job.ID, State: int(statePending)}
	}
	return newLeaseQueueFromRows(jobs, rows, ttl, maxRetries, 0)
}

// The q* helpers make one of the queue's decisions and apply the
// records it yields, as a dispatcher exchange commits them.

// qLease grants up to n pending jobs (at least one) to worker.
func qLease(q *leaseQueue, worker string, n int, now time.Time) []LeaseGrant {
	var granted []LeaseGrant
	var rec walRecord
	for len(granted) < max(n, 1) && q.grant(&rec, worker, now) {
		q.apply(&rec)
		granted = append(granted, LeaseGrant{Job: q.entries[rec.JobID].job, LeaseID: rec.LeaseID})
	}
	return granted
}

func qHeartbeat(q *leaseQueue, worker string, ref LeaseRef, now time.Time) bool {
	var rec walRecord
	return q.extend(&rec, worker, ref, now) && q.apply(&rec)
}

func qComplete(q *leaseQueue, ref LeaseRef) (accepted, fenced bool) {
	var rec walRecord
	if accepted, fenced = q.complete(&rec, ref, nil); accepted {
		q.apply(&rec)
	}
	return accepted, fenced
}

func qFail(q *leaseQueue, worker string, ref LeaseRef, msg string) (requeued, failed bool) {
	var rec walRecord
	if !q.fail(&rec, worker, ref, msg) || !q.apply(&rec) {
		return false, false
	}
	return rec.Kind == walKindRequeue, rec.Kind == walKindDeadLetter
}

func qRelease(q *leaseQueue, worker string, ref LeaseRef) bool {
	var rec walRecord
	return q.release(&rec, worker, ref) && q.apply(&rec)
}

// qSweep returns the rows the sweep requeued and dead-lettered.
func qSweep(q *leaseQueue, now time.Time) (requeued, failed []*queueEntry) {
	var rec walRecord
	q.sweep(&rec, now, func(r *walRecord) {
		q.apply(r)
		if e := q.entries[r.JobID]; r.Kind == walKindRequeue {
			requeued = append(requeued, e)
		} else {
			failed = append(failed, e)
		}
	})
	return requeued, failed
}

// qReleaseLeased releases every live lease, as an in-process run
// recovering its ledger does.
func qReleaseLeased(q *leaseQueue) {
	var rec walRecord
	for _, id := range q.ids {
		if e := q.entries[id]; e.state == stateLeased && q.release(&rec, e.worker, LeaseRef{JobID: id, LeaseID: e.leaseID}) {
			q.apply(&rec)
		}
	}
}

// TestLeaseQueueHeartbeatAfterExpiry pins the expiry fence's division of
// labor: heartbeat itself does not check the clock — a heartbeat that
// races past the TTL but lands before the sweep revives the lease (the
// holder is demonstrably alive, and nothing was re-granted yet), while
// one landing after the sweep is rejected because the nonce is stale.
// Dispatchers sweep before heartbeating, so "expired" is decided at a
// single point instead of two racing ones.
func TestLeaseQueueHeartbeatAfterExpiry(t *testing.T) {
	q, now := newTestQueue(5)
	g := qLease(q, "w1", 1, *now)[0]

	*now = now.Add(2 * time.Minute) // past the TTL, before any sweep
	if !qHeartbeat(q, "w1", LeaseRef{JobID: 0, LeaseID: g.LeaseID}, *now) {
		t.Fatal("pre-sweep heartbeat from the (live) holder rejected")
	}
	if e := q.entries[0]; !e.expires.After(*now) {
		t.Fatal("heartbeat did not re-extend the lease")
	}

	// Let it expire for real this time: sweep first, heartbeat second.
	*now = now.Add(2 * time.Minute)
	requeued, _ := qSweep(q, *now)
	if len(requeued) != 1 {
		t.Fatalf("sweep requeued %d, want 1", len(requeued))
	}
	if qHeartbeat(q, "w1", LeaseRef{JobID: 0, LeaseID: g.LeaseID}, *now) {
		t.Fatal("post-sweep heartbeat revived a requeued job")
	}
	if e := q.entries[0]; e.state != statePending {
		t.Fatalf("job state = %v, want pending", e.state)
	}
}

// TestLeaseQueueDuplicateComplete: the same lease completing twice — a
// retried upload whose first copy did land — is fenced the second time,
// never double-completed.
func TestLeaseQueueDuplicateComplete(t *testing.T) {
	q, now := newTestQueue(5)
	g := qLease(q, "w1", 1, *now)[0]
	ref := LeaseRef{JobID: 0, LeaseID: g.LeaseID}

	if accepted, fenced := qComplete(q, ref); !accepted || fenced {
		t.Fatalf("first complete = (%v, %v), want accepted", accepted, fenced)
	}
	if accepted, fenced := qComplete(q, ref); accepted || !fenced {
		t.Fatalf("duplicate complete = (%v, %v), want fenced", accepted, fenced)
	}
	if _, _, done, failed := q.counts(); done != 1 || failed != 0 {
		t.Fatalf("ledger counts done=%d failed=%d after duplicate complete", done, failed)
	}
}

// TestLeaseQueueFailFromNonHolder: an execution-failure report is only
// honored from the job's current holder under its current nonce — a
// superseded holder (lease expired and re-granted) or an impostor name
// must not charge the replacement's retry budget.
func TestLeaseQueueFailFromNonHolder(t *testing.T) {
	q, now := newTestQueue(5)
	first := qLease(q, "w1", 1, *now)[0]
	firstNonce := first.LeaseID

	*now = now.Add(2 * time.Minute)
	if requeued, _ := qSweep(q, *now); len(requeued) != 1 {
		t.Fatal("lease did not expire")
	}
	second := qLease(q, "w2", 1, *now)[0]
	if second.Job.ID != 0 || second.LeaseID == firstNonce {
		t.Fatalf("re-grant = job %d nonce %d (was %d)", second.Job.ID, second.LeaseID, firstNonce)
	}
	attempts := q.entries[0].attempts

	// Superseded holder reports a failure under its dead nonce.
	if r, f := qFail(q, "w1", LeaseRef{JobID: 0, LeaseID: firstNonce}, "boom"); r || f {
		t.Fatalf("superseded fail = (%v, %v), want ignored", r, f)
	}
	// Impostor: current nonce, wrong worker name.
	if r, f := qFail(q, "w1", LeaseRef{JobID: 0, LeaseID: second.LeaseID}, "boom"); r || f {
		t.Fatalf("impostor fail = (%v, %v), want ignored", r, f)
	}
	if e := q.entries[0]; e.state != stateLeased || e.worker != "w2" || e.attempts != attempts {
		t.Fatalf("non-holder reports disturbed the ledger: %+v", e)
	}
	// The real holder's report still counts.
	if r, f := qFail(q, "w2", LeaseRef{JobID: 0, LeaseID: second.LeaseID}, "boom"); !r || f {
		t.Fatalf("holder fail = (%v, %v), want requeued", r, f)
	}
}

// TestLeaseQueueReleaseRacingSweep: a graceful drain whose release
// arrives after the sweep already requeued the lease must be a no-op —
// in particular it must not insert the job into the pending set twice,
// which would let two workers hold "the" lease simultaneously.
func TestLeaseQueueReleaseRacingSweep(t *testing.T) {
	q, now := newTestQueue(5)
	g := qLease(q, "w1", 1, *now)[0]

	*now = now.Add(2 * time.Minute)
	if requeued, _ := qSweep(q, *now); len(requeued) != 1 {
		t.Fatal("lease did not expire")
	}
	if qRelease(q, "w1", LeaseRef{JobID: 0, LeaseID: g.LeaseID}) {
		t.Fatal("release honored after the sweep already requeued the job")
	}
	seen := 0
	for _, id := range q.pending {
		if id == 0 {
			seen++
		}
	}
	if seen != 1 {
		t.Fatalf("job 0 appears %d times in the pending set, want exactly 1: %v", seen, q.pending)
	}
	// And the job is grantable exactly once.
	if g := qLease(q, "w3", 10, *now); len(g) != 2 {
		t.Fatalf("re-lease granted %d jobs, want 2 (each job exactly once)", len(g))
	}
}

// TestLeaseQueueReleaseAfterReGrant: same race, one step later — the
// job was not only requeued but already re-granted to another worker;
// the stale release must not yank it from under the new holder.
func TestLeaseQueueReleaseAfterReGrant(t *testing.T) {
	q, now := newTestQueue(5)
	g := qLease(q, "w1", 1, *now)[0]
	*now = now.Add(2 * time.Minute)
	qSweep(q, *now)
	second := qLease(q, "w2", 1, *now)[0]

	if qRelease(q, "w1", LeaseRef{JobID: 0, LeaseID: g.LeaseID}) {
		t.Fatal("stale release honored against a re-granted lease")
	}
	if e := q.entries[0]; e.state != stateLeased || e.worker != "w2" || e.leaseID != second.LeaseID {
		t.Fatalf("stale release disturbed the new holder: %+v", e)
	}
}

// TestInProcessLeasesNeverExpire: a zero-TTL queue serves in-process
// executors, which heartbeat nothing; however far the clock moves, a
// sweep must not requeue or dead-letter their leases.
func TestInProcessLeasesNeverExpire(t *testing.T) {
	now := time.Unix(0, 0)
	q := newQueue([]Job{{ID: 0}, {ID: 1}}, 0, 0)
	qLease(q, "local-0", 2, now)
	now = now.Add(24 * time.Hour)
	if requeued, failed := qSweep(q, now); len(requeued)+len(failed) != 0 {
		t.Fatalf("sweep expired in-process leases: %d requeued, %d failed", len(requeued), len(failed))
	}
	if _, leased, _, _ := q.counts(); leased != 2 {
		t.Fatalf("%d leases live after a day, want 2", leased)
	}
}

// scanCounts is counts by a full scan of the ledger rows: the reference
// the maintained counters must agree with.
func scanCounts(q *leaseQueue) (pending, leased, done, failed int) {
	for _, e := range q.entries {
		switch e.state {
		case statePending:
			pending++
		case stateLeased:
			leased++
		case stateDone:
			done++
			if e.failed {
				failed++
			}
		}
	}
	return pending, leased, done, failed
}

// checkQueueCounts fails t unless counts and allDone agree with a full
// scan of q's rows.
func checkQueueCounts(t *testing.T, q *leaseQueue) {
	t.Helper()
	p, l, d, f := q.counts()
	wp, wl, wd, wf := scanCounts(q)
	if p != wp || l != wl || d != wd || f != wf {
		t.Fatalf("counts = %d/%d/%d/%d pending/leased/done/failed, a scan finds %d/%d/%d/%d", p, l, d, f, wp, wl, wd, wf)
	}
	if got, want := q.allDone(), wd == len(q.entries); got != want {
		t.Fatalf("allDone = %v with %d of %d rows done", got, wd, len(q.entries))
	}
}

// queueOp drives q through one random ledger operation, live or
// replayed, and returns the (possibly rebuilt) queue. now is the clock
// q reads; dupRows lets a restore repeat a row in a random, possibly
// unknown, state, as a damaged snapshot can.
func queueOp(rng *rand.Rand, q *leaseQueue, jobs []Job, now *time.Time, dupRows bool) *leaseQueue {
	workers := []string{"w1", "w2"}
	job := jobs[rng.Intn(len(jobs))].ID
	e := q.entries[job]
	ref := LeaseRef{JobID: job, LeaseID: e.leaseID}
	w := workers[rng.Intn(len(workers))]
	if rng.Intn(4) == 0 {
		w = e.worker // the holder, so fail/release/heartbeat land
	}
	at := now.Add(time.Duration(rng.Intn(180)-60) * time.Second)
	switch rng.Intn(14) {
	case 0, 1:
		qLease(q, w, 1+rng.Intn(3), *now)
	case 2:
		qHeartbeat(q, w, ref, *now)
	case 3:
		qComplete(q, ref)
	case 4:
		qFail(q, w, ref, "injected")
	case 5:
		qRelease(q, w, ref)
	case 6:
		qSweep(q, *now)
	case 7:
		q.apply(&walRecord{Kind: walKindGrant, JobID: job, LeaseID: q.nextLease + 1, Worker: w, Expires: at.UnixNano()})
	case 8:
		q.apply(&walRecord{Kind: walKindExtend, JobID: job, LeaseID: e.leaseID, Expires: at.UnixNano()})
	case 9:
		q.apply(&walRecord{Kind: walKindRequeue, JobID: job, Attempts: rng.Intn(3), Err: "replayed"})
	case 10:
		q.apply(&walRecord{Kind: walKindDeadLetter, JobID: job, Attempts: rng.Intn(3), Err: "replayed"})
	case 11:
		qReleaseLeased(q)
	case 12:
		// Clock jumps, backwards included: the watermark bounds expiries,
		// not the clock.
		*now = now.Add(time.Duration(rng.Intn(240)-60) * time.Second)
	default:
		rows := q.ledgerRows(nil)
		if dupRows && len(rows) > 0 {
			row := rows[rng.Intn(len(rows))]
			row.State = rng.Intn(4) // 3 is no state at all
			rows = append(rows, row)
		}
		q = newLeaseQueueFromRows(jobs, rows, q.ttl, q.maxRetries, q.nextLease)
	}
	return q
}

// TestLeaseQueueCountsMatchScan: the per-state counters behind counts
// and allDone agree with a full scan after every operation — live
// transitions, replayed ones, restores from (damaged) rows.
func TestLeaseQueueCountsMatchScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		jobs := make([]Job, 12)
		for i := range jobs {
			jobs[i].ID = i
		}
		now := time.Unix(1_700_000_000, 0)
		q := newQueue(jobs, time.Minute, 2)
		checkQueueCounts(t, q)
		for op := 0; op < 400; op++ {
			q = queueOp(rng, q, jobs, &now, true)
			checkQueueCounts(t, q)
		}
	}
}

// refSweep predicts a sweep by the full ID-ordered scan the expiry
// watermark lets sweep skip: every leased row whose expiry is not after
// now requeues while its budget lasts and dead-letters after.
func refSweep(q *leaseQueue, now time.Time) (requeued, failed []int) {
	if q.ttl == 0 {
		return nil, nil
	}
	for _, id := range q.ids {
		e := q.entries[id]
		if e.state != stateLeased || e.expires.After(now) {
			continue
		}
		if e.attempts+1 > q.maxRetries {
			failed = append(failed, id)
		} else {
			requeued = append(requeued, id)
		}
	}
	return requeued, failed
}

// TestLeaseQueueWatermarkMatchesFullScan: under random grants,
// heartbeats, replayed extensions, restores and clock jumps, every
// sweep requeues and dead-letters exactly the rows, in ID order, that a
// full scan finds expired — the watermark only skips empty scans.
func TestLeaseQueueWatermarkMatchesFullScan(t *testing.T) {
	ids := func(es []*queueEntry) []int {
		var out []int
		for _, e := range es {
			out = append(out, e.job.ID)
		}
		return out
	}
	expired := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		jobs := make([]Job, 16)
		for i := range jobs {
			jobs[i].ID = i
		}
		now := time.Unix(1_700_000_000, 0)
		q := newQueue(jobs, time.Minute, 3)
		for op := 0; op < 500; op++ {
			wantRequeued, wantFailed := refSweep(q, now)
			requeued, failed := qSweep(q, now)
			if !slices.Equal(ids(requeued), wantRequeued) || !slices.Equal(ids(failed), wantFailed) {
				t.Fatalf("seed %d op %d: sweep requeued %v failed %v, a full scan finds %v and %v",
					seed, op, ids(requeued), ids(failed), wantRequeued, wantFailed)
			}
			expired += len(requeued) + len(failed)
			q = queueOp(rng, q, jobs, &now, false)
		}
	}
	if expired == 0 {
		t.Fatal("no sweep expired a lease; the property was not exercised")
	}
}

// TestLeaseQueueApplyIsDefensive pins the replay half of apply's
// contract: a record for an unknown or done row, or an extend naming a
// superseded lease, changes nothing and reports false, so a stale log
// suffix replayed over a newer snapshot cannot reopen a row or move the
// expiry of a lease it does not name.
func TestLeaseQueueApplyIsDefensive(t *testing.T) {
	q, now := newTestQueue(5)
	first := qLease(q, "w1", 1, *now)[0]
	*now = now.Add(2 * time.Minute)
	qSweep(q, *now)
	second := qLease(q, "w2", 1, *now)[0] // job 0 again, under a new nonce
	done := qLease(q, "w2", 1, *now)[0]
	if accepted, _ := qComplete(q, LeaseRef{JobID: done.Job.ID, LeaseID: done.LeaseID}); !accepted {
		t.Fatal("complete of job 1 refused")
	}
	before := q.ledgerRows(nil)
	at := now.Add(time.Hour).UnixNano()
	for _, rec := range []walRecord{
		{Kind: walKindExtend, JobID: 0, LeaseID: first.LeaseID, Expires: at},
		{Kind: walKindGrant, JobID: 1, LeaseID: 99, Worker: "w3", Expires: at},
		{Kind: walKindExtend, JobID: 1, LeaseID: done.LeaseID, Expires: at},
		{Kind: walKindRequeue, JobID: 1, Attempts: 3},
		{Kind: walKindDeadLetter, JobID: 1, Attempts: 3},
		{Kind: walKindComplete, JobID: 1, LeaseID: done.LeaseID},
		{Kind: walKindGrant, JobID: 7, LeaseID: 99, Worker: "w3", Expires: at},
		{Kind: walKindBegin, JobID: 0},
		{Kind: walKindCancel, JobID: 0},
	} {
		if q.apply(&rec) {
			t.Fatalf("apply(%+v) took effect", rec)
		}
	}
	if after := q.ledgerRows(nil); !slices.Equal(after, before) {
		t.Fatalf("rejected records changed the ledger:\nbefore %+v\nafter  %+v", before, after)
	}
	if e := q.entries[0]; e.leaseID != second.LeaseID || e.worker != "w2" {
		t.Fatalf("job 0 holds lease %d of %s, want %d of w2", e.leaseID, e.worker, second.LeaseID)
	}
	checkQueueCounts(t, q)
}
