package core

import (
	"context"
	"fmt"

	"perple/internal/litmus"
)

// BufSet holds the in-memory results of a perpetual test run: for each
// load-performing thread t, Bufs[t] has length Reads[t]·N and slot
// Reads[t]·n + i records the i-th load of iteration n (Section III-B of
// the paper). Store-only threads have empty buffers.
type BufSet struct {
	N    int
	Bufs [][]int64
}

// NewBufSet allocates zeroed buffers for a run of n iterations.
func NewBufSet(pt *PerpetualTest, n int) *BufSet {
	bs := &BufSet{}
	bs.Reset(pt, n)
	return bs
}

// Reset shapes bs as zeroed buffers for an n-iteration run of pt,
// reusing the backing arrays it already holds. A store-only thread's
// buffer is emptied, not dropped, so a later test that loads on that
// thread reuses its array.
func (bs *BufSet) Reset(pt *PerpetualTest, n int) {
	bs.N = n
	if cap(bs.Bufs) < len(pt.Reads) {
		bufs := make([][]int64, len(pt.Reads))
		copy(bufs, bs.Bufs[:cap(bs.Bufs)])
		bs.Bufs = bufs
	}
	bs.Bufs = bs.Bufs[:len(pt.Reads)]
	for t, r := range pt.Reads {
		if b := bs.Bufs[t]; cap(b) < r*n {
			bs.Bufs[t] = make([]int64, r*n)
		} else {
			bs.Bufs[t] = b[:r*n]
			clear(bs.Bufs[t])
		}
	}
}

// Validate checks that the buffer shapes match the perpetual test.
func (bs *BufSet) Validate(pt *PerpetualTest) error {
	if len(bs.Bufs) != len(pt.Reads) {
		return fmt.Errorf("core: bufset has %d threads, test has %d", len(bs.Bufs), len(pt.Reads))
	}
	for t, r := range pt.Reads {
		want := r * bs.N
		if len(bs.Bufs[t]) != want {
			return fmt.Errorf("core: thread %d buffer has %d entries, want %d", t, len(bs.Bufs[t]), want)
		}
	}
	return nil
}

// Counter counts perpetual-outcome occurrences in run results. It holds
// the converted outcomes of interest in evaluation order; like the
// paper's generated COUNT/COUNTH functions, at most one outcome is
// counted per frame (first match wins). A Counter keeps scratch state
// between frames and is not safe for concurrent use; clone one per
// goroutine with Clone.
type Counter struct {
	pt       *PerpetualTest
	outcomes []*PerpetualOutcome

	// Scratch, indexed by thread.
	vals    []int64
	lo, hi  []int64
	isExist []bool

	// Factorized-counting state (see factor.go). Plans are immutable
	// once built and shared across Clones; scratch is per-Counter.
	fplans      []*outcomePlan
	fplansOK    bool
	fplansBuilt bool
	fscratch    *factorScratch
	// fbudget is the factorized pass's pair-matrix memory guard:
	// maxFactorMatrixBytes, lowered only by tests to make it trip.
	fbudget int64
}

// NewCounter builds a counter for the given outcomes of interest.
func NewCounter(pt *PerpetualTest, outcomes []*PerpetualOutcome) *Counter {
	n := len(pt.Reads)
	return &Counter{
		pt:       pt,
		outcomes: outcomes,
		vals:     make([]int64, n),
		lo:       make([]int64, n),
		hi:       make([]int64, n),
		isExist:  make([]bool, n),
		fbudget:  maxFactorMatrixBytes,
	}
}

// NewTargetCounter converts the test's target outcome and returns a
// counter for it alone, the common configuration in the paper's
// evaluation.
func NewTargetCounter(pt *PerpetualTest) (*Counter, error) {
	po, err := ConvertOutcome(pt, pt.Orig.Target)
	if err != nil {
		return nil, err
	}
	return NewCounter(pt, []*PerpetualOutcome{po}), nil
}

// Clone returns an independent counter over the same outcomes, usable
// from another goroutine.
func (c *Counter) Clone() *Counter {
	cl := NewCounter(c.pt, c.outcomes)
	cl.fplans, cl.fplansOK, cl.fplansBuilt = c.fplans, c.fplansOK, c.fplansBuilt
	cl.fbudget = c.fbudget
	return cl
}

// TakeScratch moves from's factorized-count scratch (pair matrices,
// bound, interval and bitset arrays) to c when c has none yet, so a
// counter for another test counts without reallocating them. The
// scratch holds no test-specific state between counts; from regrows its
// own if it counts again.
func (c *Counter) TakeScratch(from *Counter) {
	if from != nil && from != c && c.fscratch == nil {
		c.fscratch, from.fscratch = from.fscratch, nil
	}
}

// Outcomes returns the outcomes of interest in evaluation order.
func (c *Counter) Outcomes() []*PerpetualOutcome { return c.outcomes }

// CountResult reports outcome occurrences plus the work performed, used
// for the paper's runtime accounting (frames examined dominates counting
// cost).
type CountResult struct {
	// Counts[i] is the number of frames whose first matching outcome of
	// interest was outcomes[i].
	Counts []int64
	// Frames is the number of frames examined: N^TL for the exhaustive
	// counter, N for the heuristic.
	Frames int64
}

// Total sums all outcome counts.
func (r *CountResult) Total() int64 {
	var t int64
	for _, c := range r.Counts {
		t += c
	}
	return t
}

// CountExhaustive is Algorithm 1: it enumerates every frame — one
// iteration index per load-performing thread, N^TL tuples — and counts
// the first outcome of interest satisfied in each. The odometer polls
// ctx every cancelCheckMask+1 frames and abandons the walk on
// cancellation, returning the context's error.
//
// Production counts through CountExhaustiveAuto, which takes the
// factorized path whenever it applies. This odometer is kept as the
// reference the factorized differentials and fuzz targets compare
// against, and as the fallback CountExhaustiveAuto takes.
func (c *Counter) CountExhaustive(ctx context.Context, bs *BufSet) (*CountResult, error) {
	if err := bs.Validate(c.pt); err != nil {
		return nil, err
	}
	res := &CountResult{Counts: make([]int64, len(c.outcomes))}
	n := int64(bs.N)
	tl := c.pt.TL()
	if n == 0 || tl == 0 {
		return res, nil
	}
	done := ctx.Done()
	idx := make([]int64, tl)
	counts := res.Counts
	var frames int64
	for {
		if done != nil && frames&cancelCheckMask == 0 {
			select {
			case <-done:
				return nil, fmt.Errorf("core: exhaustive count aborted: %w", ctx.Err())
			default:
			}
		}
		for i, t := range c.pt.LoadThreads {
			c.vals[t] = idx[i]
		}
		frames++
		for oi, po := range c.outcomes {
			if c.eval(po, bs, n) {
				counts[oi]++
				break
			}
		}
		// Odometer over the frame space.
		i := tl - 1
		for i >= 0 {
			idx[i]++
			if idx[i] < n {
				break
			}
			idx[i] = 0
			i--
		}
		if i < 0 {
			res.Frames = frames
			return res, nil
		}
	}
}

// CountHeuristic is Algorithm 2: it walks the anchor thread's iterations
// once, derives every other iteration index by the substitution plan of
// Section IV-B (or the diagonal fallback), and counts the first satisfied
// outcome of interest. Its work is linear in N. Like CountExhaustive it
// polls ctx every cancelCheckMask+1 frames.
func (c *Counter) CountHeuristic(ctx context.Context, bs *BufSet) (*CountResult, error) {
	if err := bs.Validate(c.pt); err != nil {
		return nil, err
	}
	res := &CountResult{Counts: make([]int64, len(c.outcomes))}
	if bs.N == 0 || c.pt.TL() == 0 {
		return res, nil
	}
	done := ctx.Done()
	anchor := c.pt.LoadThreads[0]
	n := int64(bs.N)
	counts := res.Counts
	for i := int64(0); i < n; i++ {
		if done != nil && i&cancelCheckMask == 0 {
			select {
			case <-done:
				return nil, fmt.Errorf("core: heuristic count aborted: %w", ctx.Err())
			default:
			}
		}
		for oi, po := range c.outcomes {
			c.vals[anchor] = i
			if c.evalPinned(po, bs, n, i) {
				counts[oi]++
				break
			}
		}
	}
	res.Frames = n
	return res, nil
}

// cancelCheckMask rate-limits the counters' cancellation poll to every
// 8192 frames — cheap against the per-frame outcome evaluation while
// still bounding cancellation latency.
const cancelCheckMask = 8191

// CountExhaustiveParallel is CountExhaustive; workers is ignored.
//
// Deprecated: counts run on the calling goroutine; use CountExhaustive.
func (c *Counter) CountExhaustiveParallel(ctx context.Context, bs *BufSet, _ int) (*CountResult, error) {
	return c.CountExhaustive(ctx, bs)
}

// CountHeuristicParallel is CountHeuristic; workers is ignored.
//
// Deprecated: counts run on the calling goroutine; use CountHeuristic.
func (c *Counter) CountHeuristicParallel(ctx context.Context, bs *BufSet, _ int) (*CountResult, error) {
	return c.CountHeuristic(ctx, bs)
}

// bufVal reads the recorded load value for thread t's slot at its current
// iteration index.
//
//perple:hotpath cover=core-count-eval
func (c *Counter) bufVal(bs *BufSet, ref BufRef) int64 {
	return bs.Bufs[ref.Thread][int64(c.pt.Reads[ref.Thread])*c.vals[ref.Thread]+int64(ref.Slot)]
}

// eval decides whether the perpetual outcome holds for the frame whose
// load-thread indices are in c.vals. Store-only threads are existential:
// their constraints intersect to an interval that must meet [0, N).
//
//perple:hotpath cover=core-count-eval
func (c *Counter) eval(po *PerpetualOutcome, bs *BufSet, n int64) bool {
	if po.Unsatisfiable {
		return false
	}
	for _, ev := range po.ExistVars {
		c.isExist[ev] = true
		c.lo[ev], c.hi[ev] = 0, n-1
	}
	ok := c.evalConstraints(po, bs)
	if ok {
		for _, ev := range po.ExistVars {
			if c.lo[ev] > c.hi[ev] {
				ok = false
				break
			}
		}
	}
	for _, ev := range po.ExistVars {
		c.isExist[ev] = false
	}
	return ok
}

// evalConstraints checks every constraint against c.vals, folding
// existential variables into c.lo/c.hi intervals. An RF constraint proves
// a largest consistent target iteration (upper bound); an FR constraint a
// smallest (lower bound); values that prove nothing (off the target
// thread's sequences) fail the constraint.
//
//perple:hotpath cover=core-count-eval
func (c *Counter) evalConstraints(po *PerpetualOutcome, bs *BufSet) bool {
	for i := range po.Constraints {
		con := &po.Constraints[i]
		x := c.bufVal(bs, con.Ref)
		switch con.Rel {
		case EQZero:
			if x != 0 {
				return false
			}
		case RF:
			ub, ok := rfBound(x, con.K, con.Var, con.StoreIdx, con.SeqThread, con.SeqIdx)
			if !ok {
				return false
			}
			if c.isExist[con.Var] {
				if ub < c.hi[con.Var] {
					c.hi[con.Var] = ub
				}
			} else if c.vals[con.Var] > ub {
				return false
			}
		case FR:
			lb, ok := frBound(x, con.K, con.A, con.Var, con.StoreIdx, con.SeqThread, con.SeqIdx)
			if !ok {
				return false
			}
			if c.isExist[con.Var] {
				if lb > c.lo[con.Var] {
					c.lo[con.Var] = lb
				}
			} else if c.vals[con.Var] < lb {
				return false
			}
		}
	}
	return true
}

// evalPinned runs the heuristic plan: execute the pins to derive the
// non-anchor indices, then evaluate like eval with every pinned variable
// concrete. A pin that fails (value off-sequence, index out of range)
// means the heuristic misses this anchor iteration.
//
//perple:hotpath cover=core-count-eval
func (c *Counter) evalPinned(po *PerpetualOutcome, bs *BufSet, n, anchorN int64) bool {
	if po.Unsatisfiable {
		return false
	}
	for _, p := range po.Pins {
		var m int64
		switch p.Kind {
		case PinDiagonal:
			m = anchorN
		default:
			con := &po.Constraints[p.Constraint]
			x := c.bufVal(bs, con.Ref)
			var ok bool
			if p.Kind == PinRF {
				// Pin to the latest target iteration the value proves.
				m, ok = rfBound(x, con.K, con.Var, con.StoreIdx, con.SeqThread, con.SeqIdx)
			} else {
				// Pin to the tightest iteration satisfying the fr bound.
				m, ok = frBound(x, con.K, con.A, con.Var, con.StoreIdx, con.SeqThread, con.SeqIdx)
			}
			if !ok {
				return false
			}
		}
		if m < 0 || m >= n {
			return false
		}
		c.vals[p.Var] = m
	}

	// Store-only variables not pinned by the plan stay existential.
	exist := false
	for _, ev := range po.ExistVars {
		if !pinsVar(po.Pins, ev) {
			c.isExist[ev] = true
			c.lo[ev], c.hi[ev] = 0, n-1
			exist = true
		}
	}
	ok := c.evalConstraints(po, bs)
	if ok && exist {
		for _, ev := range po.ExistVars {
			if c.isExist[ev] && c.lo[ev] > c.hi[ev] {
				ok = false
				break
			}
		}
	}
	if exist {
		for _, ev := range po.ExistVars {
			c.isExist[ev] = false
		}
	}
	return ok
}

func pinsVar(pins []Pin, v int) bool {
	for _, p := range pins {
		if p.Var == v {
			return true
		}
	}
	return false
}

// DecodeValue identifies the store instruction and iteration that
// produced a value loaded from loc during a perpetual run. ok is false
// for the initial value 0 or values on no store's sequence. This is the
// paper's Section VI-B5 insight, used for thread-skew measurement.
func DecodeValue(pt *PerpetualTest, loc litmus.Loc, v int64) (store *SeqStore, iter int64, ok bool) {
	if v <= 0 {
		return nil, 0, false
	}
	k := pt.K[loc]
	if k == 0 {
		return nil, 0, false
	}
	a := (v-1)%k + 1
	s := pt.StoreFor(loc, a)
	if s == nil {
		return nil, 0, false
	}
	iter, ok = s.DecodeIteration(v)
	if !ok {
		return nil, 0, false
	}
	return s, iter, true
}
