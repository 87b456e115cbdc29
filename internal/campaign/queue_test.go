package campaign

import (
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
	g := q.lease("w1", 1)[0]

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
	g := q.lease("w1", 1)[0]
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
	first := q.lease("w1", 1)[0]
	firstNonce := first.LeaseID

	*now = now.Add(2 * time.Minute)
	if requeued, _ := q.sweep(); len(requeued) != 1 {
		t.Fatal("lease did not expire")
	}
	second := q.lease("w2", 1)[0]
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
	g := q.lease("w1", 1)[0]

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
	if g := q.lease("w3", 10); len(g) != 2 {
		t.Fatalf("re-lease granted %d jobs, want 2 (each job exactly once)", len(g))
	}
}

// TestLeaseQueueReleaseAfterReGrant: same race, one step later — the
// job was not only requeued but already re-granted to another worker;
// the stale release must not yank it from under the new holder.
func TestLeaseQueueReleaseAfterReGrant(t *testing.T) {
	q, now := newTestQueue(5)
	g := q.lease("w1", 1)[0]
	*now = now.Add(2 * time.Minute)
	q.sweep()
	second := q.lease("w2", 1)[0]

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
	q.lease("local-0", 2)
	now = now.Add(24 * time.Hour)
	if requeued, failed := q.sweep(); len(requeued)+len(failed) != 0 {
		t.Fatalf("sweep expired in-process leases: %d requeued, %d failed", len(requeued), len(failed))
	}
	if _, leased, _, _ := q.counts(); leased != 2 {
		t.Fatalf("%d leases live after a day, want 2", leased)
	}
}
