package campaign

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"testing"
	"time"
)

// explorePeriod is the heartbeat period the explored server's lease TTL
// implies; each tick moves the clock on by one period.
const explorePeriod = time.Second

// exploredResult is every explored job's result: one shared pointer
// keeps printed states comparable.
var exploredResult = &JobResult{}

// TestPipelineExplore drives a pipeline alone, against a model server
// holding three batches of jobs, through every order of its events:
// jobs finishing in any order, the reply to the call in flight arriving
// or failing (once), up to two heartbeat ticks, one Drain and a
// cancellation. States reached by two orders are explored once, and
// every way to stop must be reached. After every step it checks the
// worker's invariants:
//
//  1. each granted job runs at most once;
//  2. each grant ends exactly once: uploaded, released, or abandoned at
//     a hard stop;
//  3. at most one unstarted batch is queued beyond the running one;
//  4. no job starts after Drain, and every upload after it leases 0;
//  5. a heartbeat — an upload's or a /heartbeat — extends exactly the
//     held leases a period has passed on since their grant or last
//     extension, and a tick with no call in flight sends one if any is
//     due;
//  6. no lease is held when the worker stops gracefully.
func TestPipelineExplore(t *testing.T) {
	for _, tc := range []struct{ parallel, size int }{{1, 1}, {1, 2}, {2, 2}} {
		t.Run(fmt.Sprintf("parallel=%d/batch=%d", tc.parallel, tc.size), func(t *testing.T) {
			start := time.Now()
			seen, stops := map[uint64]bool{}, map[string]int{}
			var trace []event
			var visit func(w *world)
			visit = func(w *world) {
				if len(trace) > 64 {
					t.Fatalf("no stop after %d events: %v", len(trace), trace)
				}
				for _, ev := range w.events() {
					c := w.clone()
					trace = append(trace, ev)
					if err := c.do(ev); err != nil {
						t.Fatalf("after %v: %v", trace, err)
					}
					if k := c.key(); !seen[k] {
						seen[k] = true
						if c.stop != "" {
							stops[c.stop]++
						} else {
							visit(c)
						}
					}
					trace = trace[:len(trace)-1]
				}
			}
			visit(newWorld(tc.parallel, tc.size))
			t.Logf("%d states in %v; stops %v", len(seen), time.Since(start).Round(time.Millisecond), stops)
			for _, how := range []string{"done", "drained", "failed", "cancelled"} {
				if stops[how] == 0 {
					t.Errorf("no order of events stops the worker %s", how)
				}
			}
		})
	}
}

type eventKind int

const (
	evFinish eventKind = iota // a running job finishes
	evReply                   // the call in flight is answered
	evFail                    // the call in flight fails
	evTick
	evDrain
	evCancel
)

type event struct {
	kind eventKind
	job  int // evFinish: the job
}

func (e event) String() string {
	return [...]string{"finish", "reply", "fail", "tick", "drain", "cancel"}[e.kind] +
		map[bool]string{true: fmt.Sprint(" job ", e.job)}[e.kind == evFinish]
}

// world is a pipeline together with the model of everything around it:
// the server, the worker's slots and exchange, the clock, and the
// record of every grant the invariants need.
type world struct {
	p *pipeline
	model
}

type model struct {
	size  int // jobs per batch
	now   time.Time
	total int // the campaign's jobs

	// The server: jobs not leased out, and jobs merged.
	unleased []int
	merged   int
	lastID   int64

	grants  map[int64]grantState // by lease ID: every grant the worker got
	running []LeaseGrant         // handed to a slot, not yet finished

	// The call in flight: its kind, when it was made, the leases it
	// extends, and the server's answer, delivered by evReply.
	call    callKind
	sent    time.Time
	extends []LeaseRef
	next    LeaseResponse
	hasNext bool
	done    bool

	ticks, fails int
	drained      bool
	stop         string // how the worker stopped, once it has
}

type grantState struct {
	job                      int
	started, finished, ended bool
	ext                      time.Time // granted or last extended
}

func newWorld(parallel, size int) *world {
	w := &world{p: newPipeline(parallel, size)}
	w.size, w.total = size, 3*size
	w.now = time.Unix(0, 0).UTC()
	for j := 0; j < w.total; j++ {
		w.unleased = append(w.unleased, j)
	}
	w.grants = map[int64]grantState{}
	if err := w.apply(w.p.advance(w.now, step{})); err != nil {
		panic(err)
	}
	return w
}

func (w *world) clone() *world {
	p := *w.p
	p.queue, p.batch, p.beat = slices.Clone(p.queue), slices.Clone(p.batch), slices.Clone(p.beat)
	p.held = maps.Clone(p.held)
	for _, r := range []*CompleteRequest{&p.pending, &p.out} {
		r.Results, r.Failures = slices.Clone(r.Results), slices.Clone(r.Failures)
		r.Released, r.Heartbeat = slices.Clone(r.Released), slices.Clone(r.Heartbeat)
	}
	c := &world{p: &p, model: w.model}
	c.unleased, c.running = slices.Clone(c.unleased), slices.Clone(c.running)
	c.grants = maps.Clone(c.grants)
	c.extends, c.next.Grants = slices.Clone(c.extends), slices.Clone(c.next.Grants)
	return c
}

// key identifies the state: the pipeline's fields and the model's.
func (w *world) key() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v\n%v", *w.p, w.model)
	return h.Sum64()
}

// events lists the events the state allows.
func (w *world) events() []event {
	var evs []event
	for _, g := range w.running {
		evs = append(evs, event{kind: evFinish, job: g.Job.ID})
	}
	if w.call != callNone {
		evs = append(evs, event{kind: evReply})
		if w.fails == 0 {
			evs = append(evs, event{kind: evFail})
		}
	}
	if w.p.period > 0 && w.ticks < 2 {
		evs = append(evs, event{kind: evTick})
	}
	if !w.drained {
		evs = append(evs, event{kind: evDrain})
	}
	return append(evs, event{kind: evCancel})
}

// do feeds ev to the pipeline and carries out the step it returns.
func (w *world) do(ev event) error {
	var s step
	switch ev.kind {
	case evFinish:
		i := slices.IndexFunc(w.running, func(g LeaseGrant) bool { return g.Job.ID == ev.job })
		g := w.running[i]
		w.running = slices.Delete(w.running, i, i+1)
		gs := w.grants[g.LeaseID]
		gs.finished = true
		w.grants[g.LeaseID] = gs
		s = w.p.finished(w.now, WorkerResult{LeaseID: g.LeaseID, Result: exploredResult}, nil)
	case evReply:
		for _, ref := range w.extends {
			if gs := w.grants[ref.LeaseID]; !gs.ended {
				gs.ext = w.sent
				w.grants[ref.LeaseID] = gs
			}
		}
		var next *LeaseResponse
		if w.hasNext {
			next = &w.next
			for _, g := range w.next.Grants {
				w.grants[g.LeaseID] = grantState{job: g.Job.ID, ext: w.now}
			}
		}
		w.call = callNone
		s = w.p.replied(w.now, next, w.done, nil)
	case evFail:
		w.fails++
		w.call = callNone
		s = w.p.replied(w.now, nil, false, errors.New("exchange failed"))
	case evTick:
		w.ticks++
		w.now = w.now.Add(explorePeriod)
		free := w.call == callNone
		s = w.p.tick(w.now)
		if free && s.call == callNone && len(w.due(nil)) > 0 {
			return fmt.Errorf("tick with no call in flight extends none of due leases %v", w.due(nil))
		}
	case evDrain:
		w.drained = true
		s = w.p.drain(w.now)
	case evCancel:
		s = w.p.cancel(context.Canceled)
	}
	return w.apply(s)
}

// apply carries out a step — starting jobs, making a call, stopping —
// checking the invariants as it goes.
func (w *world) apply(s step) error {
	for _, g := range s.start {
		gs, ok := w.grants[g.LeaseID]
		switch {
		case !ok || gs.ended:
			return fmt.Errorf("job %d started on lease %d, which the worker does not hold", g.Job.ID, g.LeaseID)
		case w.drained:
			return fmt.Errorf("job %d started after Drain", g.Job.ID)
		}
		for _, other := range w.grants {
			if other.job == g.Job.ID && other.started {
				return fmt.Errorf("job %d started twice", g.Job.ID)
			}
		}
		gs.started = true
		w.grants[g.LeaseID] = gs
		w.running = append(w.running, g)
	}
	if s.call != callNone {
		if w.call != callNone {
			return fmt.Errorf("call %d made while call %d is in flight", s.call, w.call)
		}
		w.call, w.sent, w.extends, w.hasNext, w.done = s.call, w.now, w.extends[:0], false, false
	}
	switch s.call {
	case callLease:
		w.grant(s.lease)
		w.done = len(w.next.Grants) == 0 && w.merged == w.total
	case callUpload:
		if err := w.upload(s.upload); err != nil {
			return err
		}
	case callHeartbeat:
		if err := w.extend(s.beat); err != nil {
			return err
		}
	}
	if s.stop {
		switch {
		case s.err == nil && w.drained:
			w.stop = "drained"
		case s.err == nil:
			w.stop = "done"
		case errors.Is(s.err, context.Canceled):
			w.stop = "cancelled"
		default:
			w.stop = "failed"
		}
		for id, gs := range w.grants {
			if gs.ended {
				continue
			}
			if s.err == nil {
				return fmt.Errorf("worker stopped gracefully holding lease %d", id)
			}
			gs.ended = true // abandoned: the lease expires server-side
			w.grants[id] = gs
		}
		if s.err == nil && len(w.p.held) > 0 {
			return fmt.Errorf("worker stopped gracefully with %d leases in its held set", len(w.p.held))
		}
	}
	if len(w.p.queue) > w.size {
		return fmt.Errorf("%d grants queued beyond the running batch, above the batch size %d", len(w.p.queue), w.size)
	}
	return nil
}

// upload ends the grants u reports or hands back, checks its heartbeat
// and lease, and has the server merge it and answer.
func (w *world) upload(u *CompleteRequest) error {
	if w.drained && u.Lease != 0 {
		return fmt.Errorf("upload after Drain leases %d", u.Lease)
	}
	end := func(id int64, ran bool) error {
		gs, ok := w.grants[id]
		switch {
		case !ok || gs.ended:
			return fmt.Errorf("upload ends lease %d, which the worker does not hold", id)
		case ran && !gs.finished, !ran && gs.started:
			return fmt.Errorf("upload reports lease %d (job %d) with started=%v finished=%v", id, gs.job, gs.started, gs.finished)
		}
		gs.ended = true
		w.grants[id] = gs
		if ran {
			w.merged++
		} else {
			w.unleased = append(w.unleased, gs.job)
		}
		return nil
	}
	for _, r := range u.Results {
		if err := end(r.LeaseID, true); err != nil {
			return err
		}
	}
	for _, f := range u.Failures {
		if err := end(f.LeaseID, true); err != nil {
			return err
		}
	}
	for _, ref := range u.Released {
		if err := end(ref.LeaseID, false); err != nil {
			return err
		}
	}
	if err := w.extend(u.Heartbeat); err != nil {
		return err
	}
	if w.merged == w.total {
		w.done = true
	} else if u.Lease > 0 {
		w.grant(u.Lease)
	}
	return nil
}

// grant has the server lease up to n jobs for the reply in flight.
func (w *world) grant(n int) {
	w.next = LeaseResponse{Grants: w.next.Grants[:0], TTLSec: (3 * explorePeriod).Seconds()}
	w.hasNext = true
	for ; n > 0 && len(w.unleased) > 0; n-- {
		w.lastID++
		w.next.Grants = append(w.next.Grants, LeaseGrant{Job: Job{ID: w.unleased[0]}, LeaseID: w.lastID})
		w.unleased = w.unleased[1:]
	}
}

// extend checks that refs are exactly the held leases now due, and
// records them as the call's extensions.
func (w *world) extend(refs []LeaseRef) error {
	due := w.due(nil)
	got := make([]int64, len(refs))
	for i, ref := range refs {
		got[i] = ref.LeaseID
		if gs := w.grants[ref.LeaseID]; !gs.ended && w.now.Sub(gs.ext) < explorePeriod {
			return fmt.Errorf("lease %d extended %v after its grant or last extension, under a period", ref.LeaseID, w.now.Sub(gs.ext))
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, due) {
		return fmt.Errorf("heartbeat extends leases %v, want the due ones %v", got, due)
	}
	w.extends = append(w.extends, refs...)
	return nil
}

// due appends to dst the held leases, by ID, a period has passed on
// since their grant or last extension.
func (w *world) due(dst []int64) []int64 {
	for id, gs := range w.grants {
		if !gs.ended && w.now.Sub(gs.ext) >= explorePeriod {
			dst = append(dst, id)
		}
	}
	slices.Sort(dst)
	return dst
}
