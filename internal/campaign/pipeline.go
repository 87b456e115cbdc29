package campaign

import (
	"cmp"
	"slices"
	"time"
)

// pipeline is a fleet worker's decisions kept apart from its I/O: which
// leases it holds, when a batch starts, what an upload carries and
// leases, which held leases a heartbeat extends, and when to stop.
// Worker.Run owns one, feeds it every event with the time it was seen,
// and carries out the step each event method returns. It starts no
// goroutine, reads no clock, takes no lock and makes no call, so a test
// can drive it through every order of its events. At most one call is
// in flight.
type pipeline struct {
	parallel, fixed int           // jobs run at once; a pinned batch size, or 0
	period          time.Duration // a third of the first lease reply's TTL
	jobTime         time.Duration // the last batch's execution time per job

	queue         []LeaseGrant // leased, not yet started
	batch         []LeaseGrant // the running batch; empty between batches
	started, done int          // jobs of batch handed to a slot, and finished
	begun         time.Time    // when batch started

	// held is every lease the worker holds — queued, running, or
	// finished but unshipped — with when it was granted or last extended.
	held    map[int64]heldLease
	pending CompleteRequest // finished jobs' outcomes and released grants
	out     CompleteRequest // the upload in flight
	beat    []LeaseRef      // the /heartbeat in flight

	call     callKind  // the call in flight, if any
	sent     time.Time // when call was made
	ran      bool      // a batch finished; its outcomes wait to ship
	ticked   bool      // a tick came while a call was in flight
	draining bool
}

type heldLease struct {
	ref   LeaseRef
	since time.Time
}

type callKind int

const (
	callNone callKind = iota
	callLease
	callUpload
	callHeartbeat
)

// step is what Run carries out after an event: hand start to the slots,
// make call — a /lease for lease grants, the upload, or a /heartbeat
// extending beat — and return err if stop.
type step struct {
	start  []LeaseGrant
	call   callKind
	lease  int
	upload *CompleteRequest
	beat   []LeaseRef
	stop   bool
	err    error
}

func newPipeline(parallel, fixed int) *pipeline {
	return &pipeline{parallel: parallel, fixed: fixed, held: make(map[int64]heldLease)}
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
// lease ends before it is due an extension, and at least parallel.
// Until a batch has been timed it is parallel.
func (p *pipeline) batchSize() int {
	if p.fixed > 0 {
		return p.fixed
	}
	if p.period <= 0 || p.jobTime <= 0 {
		return p.parallel
	}
	return max(p.parallel, min(defaultBatch, int(p.period/2/p.jobTime)))
}

// finished takes one job's outcome: a result, a failure, or neither for
// a run cut short by cancellation, which records nothing.
func (p *pipeline) finished(now time.Time, r WorkerResult, f *WorkerFailure) step {
	switch {
	case r.Result != nil:
		p.pending.Results = append(p.pending.Results, r)
	case f != nil:
		p.pending.Failures = append(p.pending.Failures, *f)
	}
	p.done++
	var s step
	switch {
	case p.started < len(p.batch):
		s.start = p.batch[p.started : p.started+1]
		p.started++
	case p.done == len(p.batch):
		p.jobTime = now.Sub(p.begun) / time.Duration(p.done)
		p.batch, p.started, p.done, p.ran = p.batch[:0], 0, 0, true
	}
	return p.advance(now, s)
}

// replied takes the outcome of the call in flight: the grants its reply
// carries (nil if none), which are held from now on, and the server's
// word that the campaign is over. A failed lease or upload stops the
// worker, leaving its leases to expire. Heartbeats are best-effort: a
// failed one leaves its leases due, and the server fences any fallout.
func (p *pipeline) replied(now time.Time, next *LeaseResponse, done bool, err error) step {
	call := p.call
	p.call = callNone
	if call == callHeartbeat {
		if err == nil {
			p.extend(p.beat, p.sent)
		}
		return p.advance(now, step{})
	}
	if err != nil || done {
		return step{stop: true, err: err}
	}
	if call == callUpload {
		p.extend(p.out.Heartbeat, p.sent)
	}
	if next != nil {
		if p.period == 0 {
			if p.period = time.Duration(next.TTLSec*float64(time.Second)) / 3; p.period <= 0 {
				p.period = 10 * time.Second
			}
		}
		for _, g := range next.Grants {
			p.held[g.LeaseID] = heldLease{ref: LeaseRef{JobID: g.Job.ID, LeaseID: g.LeaseID}, since: now}
		}
		if p.draining {
			p.release(next.Grants)
		} else {
			p.queue = append(p.queue, next.Grants...)
		}
	}
	return p.advance(now, step{})
}

// tick is the heartbeat ticker: the held leases that are due ride a
// /heartbeat once no call is in flight.
func (p *pipeline) tick(now time.Time) step {
	p.ticked = true
	return p.advance(now, step{})
}

// drain stops the worker pulling new work: running jobs finish and
// upload, and every unstarted grant is handed back, without touching
// its retry budget, in an upload that leases nothing.
func (p *pipeline) drain(now time.Time) step {
	p.draining = true
	p.release(p.queue)
	p.release(p.batch[p.started:])
	p.queue, p.batch = p.queue[:0], p.batch[:p.started]
	return p.advance(now, step{})
}

// cancel is the hard stop: nothing more is uploaded, and the held
// leases expire and requeue server-side.
func (p *pipeline) cancel(err error) step { return step{stop: true, err: err} }

// advance takes the steps the state allows. With no call in flight, a
// finished batch or a drain's releases ship, else a pending tick
// heartbeats. Between batches, with the last one shipped, the next one
// starts from the queue; with none queued the worker waits for the
// reply in flight, or leases two batches, or ends its drain.
func (p *pipeline) advance(now time.Time, s step) step {
	idle := len(p.batch) == 0
	if p.call == callNone && idle && (p.ran || len(p.pending.Released) > 0) {
		p.ship(now)
		s.call, s.upload = callUpload, &p.out
	}
	if p.call == callNone && p.ticked {
		p.ticked = false
		if p.beat = p.due(p.beat[:0], now); len(p.beat) > 0 {
			p.call, p.sent = callHeartbeat, now
			s.call, s.beat = callHeartbeat, p.beat
		}
	}
	if !idle || p.ran {
		return s
	}
	switch {
	case len(p.queue) > 0:
		n := min(p.batchSize(), len(p.queue))
		p.batch = append(p.batch[:0], p.queue[:n]...)
		p.queue = append(p.queue[:0], p.queue[n:]...)
		p.started, p.begun = min(p.parallel, n), now
		s.start = p.batch[:p.started]
	case p.call != callNone:
	case p.draining:
		s.stop = true
	default:
		p.call = callLease
		s.call, s.lease = callLease, 2*p.batchSize()
	}
	return s
}

// ship moves the staged outcomes and releases into the upload, with the
// due heartbeats, leasing what the batch after the queued one lacks: a
// batch when sizes hold steady, less when the size has shrunk and the
// queue runs long, and nothing while draining.
func (p *pipeline) ship(now time.Time) {
	p.out, p.pending = p.pending, p.out
	clear(p.pending.Results) // drop the shipped results
	p.pending.Results = p.pending.Results[:0]
	p.pending.Failures = p.pending.Failures[:0]
	p.pending.Released = p.pending.Released[:0]
	for _, r := range p.out.Results {
		delete(p.held, r.LeaseID)
	}
	for _, f := range p.out.Failures {
		delete(p.held, f.LeaseID)
	}
	for _, ref := range p.out.Released {
		delete(p.held, ref.LeaseID)
	}
	p.out.Heartbeat = p.due(p.out.Heartbeat[:0], now)
	p.out.Lease = 0
	if !p.draining {
		size := p.batchSize()
		p.out.Lease = min(size, max(0, 2*size-len(p.queue)))
	}
	p.call, p.sent, p.ran, p.ticked = callUpload, now, false, false
}

// release stages unstarted grants to be handed back.
func (p *pipeline) release(grants []LeaseGrant) {
	for _, g := range grants {
		p.pending.Released = append(p.pending.Released, LeaseRef{JobID: g.Job.ID, LeaseID: g.LeaseID})
	}
}

// due appends to dst, in job order, the held leases not granted or
// extended within the last period. Only those ride a heartbeat: every
// extended ref costs the dispatcher a WAL extend record, and a shard's
// lease normally ends well inside a period.
func (p *pipeline) due(dst []LeaseRef, now time.Time) []LeaseRef {
	for _, h := range p.held {
		if now.Sub(h.since) >= p.period {
			dst = append(dst, h.ref)
		}
	}
	slices.SortFunc(dst, func(a, b LeaseRef) int { return cmp.Compare(a.JobID, b.JobID) })
	return dst
}

// extend restamps refs still held as extended at t, when the call
// carrying them was made.
func (p *pipeline) extend(refs []LeaseRef, t time.Time) {
	for _, ref := range refs {
		if h, ok := p.held[ref.LeaseID]; ok {
			h.since = t
			p.held[ref.LeaseID] = h
		}
	}
}
