package campaign

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// newTestQueue builds a two-job ledger with a controllable clock.
func newTestQueue(maxRetries int) (*leaseQueue, *time.Time) {
	now := time.Unix(0, 0)
	q := newLeaseQueue([]Job{{ID: 0}, {ID: 1}}, time.Minute, maxRetries, func() time.Time { return now })
	return q, &now
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
	g := q.lease(nil, "w1", 1)[0]

	*now = now.Add(2 * time.Minute) // past the TTL, before any sweep
	if !q.heartbeat("w1", LeaseRef{JobID: 0, LeaseID: g.LeaseID}) {
		t.Fatal("pre-sweep heartbeat from the (live) holder rejected")
	}
	if e := q.entries[0]; !e.expires.After(*now) {
		t.Fatal("heartbeat did not re-extend the lease")
	}

	// Let it expire for real this time: sweep first, heartbeat second.
	*now = now.Add(2 * time.Minute)
	requeued, _ := q.sweep()
	if len(requeued) != 1 {
		t.Fatalf("sweep requeued %d, want 1", len(requeued))
	}
	if q.heartbeat("w1", LeaseRef{JobID: 0, LeaseID: g.LeaseID}) {
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
	q, _ := newTestQueue(5)
	g := q.lease(nil, "w1", 1)[0]
	ref := LeaseRef{JobID: 0, LeaseID: g.LeaseID}

	if accepted, fenced := q.complete(ref); !accepted || fenced {
		t.Fatalf("first complete = (%v, %v), want accepted", accepted, fenced)
	}
	if accepted, fenced := q.complete(ref); accepted || !fenced {
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
	first := q.lease(nil, "w1", 1)[0]
	firstNonce := first.LeaseID

	*now = now.Add(2 * time.Minute)
	if requeued, _ := q.sweep(); len(requeued) != 1 {
		t.Fatal("lease did not expire")
	}
	second := q.lease(nil, "w2", 1)[0]
	if second.Job.ID != 0 || second.LeaseID == firstNonce {
		t.Fatalf("re-grant = job %d nonce %d (was %d)", second.Job.ID, second.LeaseID, firstNonce)
	}
	attempts := q.entries[0].attempts

	// Superseded holder reports a failure under its dead nonce.
	if r, f := q.fail("w1", LeaseRef{JobID: 0, LeaseID: firstNonce}, "boom"); r || f {
		t.Fatalf("superseded fail = (%v, %v), want ignored", r, f)
	}
	// Impostor: current nonce, wrong worker name.
	if r, f := q.fail("w1", LeaseRef{JobID: 0, LeaseID: second.LeaseID}, "boom"); r || f {
		t.Fatalf("impostor fail = (%v, %v), want ignored", r, f)
	}
	if e := q.entries[0]; e.state != stateLeased || e.worker != "w2" || e.attempts != attempts {
		t.Fatalf("non-holder reports disturbed the ledger: %+v", e)
	}
	// The real holder's report still counts.
	if r, f := q.fail("w2", LeaseRef{JobID: 0, LeaseID: second.LeaseID}, "boom"); !r || f {
		t.Fatalf("holder fail = (%v, %v), want requeued", r, f)
	}
}

// TestLeaseQueueReleaseRacingSweep: a graceful drain whose release
// arrives after the sweep already requeued the lease must be a no-op —
// in particular it must not insert the job into the pending set twice,
// which would let two workers hold "the" lease simultaneously.
func TestLeaseQueueReleaseRacingSweep(t *testing.T) {
	q, now := newTestQueue(5)
	g := q.lease(nil, "w1", 1)[0]

	*now = now.Add(2 * time.Minute)
	if requeued, _ := q.sweep(); len(requeued) != 1 {
		t.Fatal("lease did not expire")
	}
	if q.release("w1", LeaseRef{JobID: 0, LeaseID: g.LeaseID}) {
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
	if g := q.lease(nil, "w3", 10); len(g) != 2 {
		t.Fatalf("re-lease granted %d jobs, want 2 (each job exactly once)", len(g))
	}
}

// TestLeaseQueueReleaseAfterReGrant: same race, one step later — the
// job was not only requeued but already re-granted to another worker;
// the stale release must not yank it from under the new holder.
func TestLeaseQueueReleaseAfterReGrant(t *testing.T) {
	q, now := newTestQueue(5)
	g := q.lease(nil, "w1", 1)[0]
	*now = now.Add(2 * time.Minute)
	q.sweep()
	second := q.lease(nil, "w2", 1)[0]

	if q.release("w1", LeaseRef{JobID: 0, LeaseID: g.LeaseID}) {
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
	q := newLeaseQueue([]Job{{ID: 0}, {ID: 1}}, 0, 0, func() time.Time { return now })
	q.lease(nil, "local-0", 2)
	now = now.Add(24 * time.Hour)
	if requeued, failed := q.sweep(); len(requeued)+len(failed) != 0 {
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
		q.lease(nil, w, 1+rng.Intn(3))
	case 2:
		q.heartbeat(w, ref)
	case 3:
		q.complete(ref)
	case 4:
		q.fail(w, ref, "injected")
	case 5:
		q.release(w, ref)
	case 6:
		q.sweep()
	case 7:
		q.applyGrant(job, q.nextLease+1, w, at)
	case 8:
		q.applyExtend(job, e.leaseID, at)
	case 9:
		q.applyRequeue(job, rng.Intn(3), "replayed")
	case 10:
		q.applyDeadLetter(job, rng.Intn(3), "replayed")
	case 11:
		q.releaseLeased()
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
		q = newLeaseQueueFromRows(jobs, rows, q.ttl, q.maxRetries, q.nextLease, q.now)
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
		q := newLeaseQueue(jobs, time.Minute, 2, func() time.Time { return now })
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
func refSweep(q *leaseQueue) (requeued, failed []int) {
	if q.ttl == 0 {
		return nil, nil
	}
	now := q.now()
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
		q := newLeaseQueue(jobs, time.Minute, 3, func() time.Time { return now })
		for op := 0; op < 500; op++ {
			wantRequeued, wantFailed := refSweep(q)
			requeued, failed := q.sweep()
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
