package sim

import (
	"context"
	"fmt"
	"math/bits"

	"perple/internal/core"
	"perple/internal/litmus"
)

// locOf maps a memory-cell index back to its location for tracing.
func (m *machine) locOf(memIdx int) litmus.Loc {
	if m.cells <= 0 || len(m.locs) == 0 {
		return ""
	}
	return m.locs[memIdx/m.cells]
}

// simThread is one core executing a test thread. The program is flat
// bytecode (see bytecode.go): code words with parallel wide operands.
type simThread struct {
	id    int
	time  int64
	speed int64 // current iteration's cost multiplier, percent
	buf   storeBuf
	prog  bytecodeProg
	pc    int
	iter  int
}

// machine is the shared engine state. A machine (and its threads) is
// owned by one Runner/PerpetualRunner and reused across runs: reset
// reinitializes the mutable fields but keeps every backing array.
type machine struct {
	cfg     Config
	pso     bool
	rng     lfSource
	mem     []int64
	threads []*simThread
	trace   *Trace
	wit     *witnessRec // rf/co witness recorder; nil when recording is off
	locs    []litmus.Loc
	cells   int // memory cells per location (N for synced runs, 1 for perpetual)

	// done is the run context's cancellation channel (nil when the run is
	// not cancellable); steps is the event counter that rate-limits the
	// cancellation poll to every cancelCheckMask+1 events.
	done  <-chan struct{}
	steps uint

	// nextDrainAt is a conservative lower bound on the earliest pending
	// store-buffer drain time (drainNever when empty); see applyDrains.
	nextDrainAt int64

	// Precomputed draw spans, one per config-derived range the event
	// loops draw from. rand.Int63n recomputes two hardware divisions on
	// every call (the rejection threshold and v % n); each span's ranges
	// are fixed for a whole run, so initSpans hoists that work out of the
	// hot loops entirely. See drawSpan.
	costSpan    drawSpan // [InstrCostMin, InstrCostMax]
	jitterSpan  drawSpan // [-SpeedJitterPct, +SpeedJitterPct]
	preemptSpan drawSpan // [PreemptMin, PreemptMax]
	drainSpan   drawSpan // [DrainMin, DrainMax]
	launchSpan  drawSpan // [0, LaunchSpread]
}

// drawSpan is the precomputed rand.Int63n state for one inclusive draw
// range [lo, lo+n-1]: the rejection threshold max, and magic/shift such
// that for every v in [0, 2^63), v/n == (v*magic) >> 64 >> shift
// exactly. With L = ceil(log2 n) and magic = floor(2^(63+L)/n)+1, the
// round-up error e = magic·n − 2^(63+L) satisfies 0 < e ≤ n < 2^L, so
// the error term e·v/2^(63+L) < 1 never carries the quotient past the
// true floor. pow2 spans use Int63n's mask path instead.
type drawSpan struct {
	lo, n, max int64
	magic      uint64
	shift      uint
	pow2       bool
}

// makeDrawSpan precomputes the span for draws from [lo, hi] inclusive.
// For non-power-of-two n the 128-bit numerator 2^(63+L) is
// hi:lo = 2^(L-1):0; bits.Div64's preconditions hold because
// 2^(L-1) < n, and magic = quotient+1 cannot wrap because n > 2^(L-1)
// bounds the quotient by 2^64 − 2.
func makeDrawSpan(lo, hi int64) drawSpan {
	if hi <= lo {
		return drawSpan{lo: lo, n: 1}
	}
	s := drawSpan{lo: lo, n: hi - lo + 1}
	if s.n&(s.n-1) == 0 {
		s.pow2 = true
		return s
	}
	n := uint64(s.n)
	l := uint(bits.Len64(n - 1)) // ceil(log2 n); 2 ≤ l ≤ 63 here
	q, _ := bits.Div64(1<<(l-1), 0, n)
	s.magic, s.shift = q+1, l-1
	s.max = int64((1 << 63) - 1 - (1<<63)%n)
	return s
}

// initSpans precomputes the config-derived draw spans; call after
// setting m.cfg and before running.
func (m *machine) initSpans() {
	m.costSpan = makeDrawSpan(m.cfg.InstrCostMin, m.cfg.InstrCostMax)
	m.jitterSpan = makeDrawSpan(-m.cfg.SpeedJitterPct, m.cfg.SpeedJitterPct)
	m.preemptSpan = makeDrawSpan(m.cfg.PreemptMin, m.cfg.PreemptMax)
	m.drainSpan = makeDrawSpan(m.cfg.DrainMin, m.cfg.DrainMax)
	m.launchSpan = makeDrawSpan(0, m.cfg.LaunchSpread)
}

// draw replicates the package-level uniform over a precomputed span,
// consuming RNG draws exactly as rand.Int63n does (byte-identical
// streams, held by TestEngineGolden and TestMachineDrawMatchesRand)
// while paying no per-call division.
//
//perple:hotpath cover=sim-synced-user
func (m *machine) draw(s *drawSpan) int64 {
	if s.n <= 1 {
		return s.lo
	}
	v := m.rng.Int63()
	if s.pow2 {
		return s.lo + v&(s.n-1)
	}
	if v > s.max {
		v = m.redraw(s)
	}
	return s.lo + spanMod(s, v)
}

// redraw is draw's outlined rejection loop, taken with probability
// below 2^-50 for the spans real configs produce; keeping the loop out
// of draw keeps draw's body small on the hot path.
//
//perple:hotpath cover=sim-synced-user
func (m *machine) redraw(s *drawSpan) int64 {
	v := m.rng.Int63()
	for v > s.max {
		v = m.rng.Int63()
	}
	return v
}

// spanMod returns v % s.n for v in [0, 2^63) via the cached magic pair.
//
//perple:hotpath cover=sim-synced-user
func spanMod(s *drawSpan, v int64) int64 {
	q, _ := bits.Mul64(uint64(v), s.magic)
	return v - int64(q>>s.shift)*s.n
}

// cancelCheckMask rate-limits cancellation polling: the event loops poll
// the context once every 1024 machine events, bounding both the poll cost
// on the hot path and the cancellation latency.
const cancelCheckMask = 1023

// cancelled polls the run context at most every cancelCheckMask+1 calls.
//
//perple:hotpath cover=sim-synced-user
func (m *machine) cancelled() bool {
	if m.done == nil {
		return false
	}
	m.steps++
	if m.steps&cancelCheckMask != 0 {
		return false
	}
	select {
	case <-m.done:
		return true
	default:
		return false
	}
}

//perple:hotpath cover=sim-synced-user
func (m *machine) cost(th *simThread) int64 {
	c := m.draw(&m.costSpan)
	// Draw and speed are non-negative (validate enforces the cost range,
	// newIteration clamps speed), so scale unsigned: unsigned division by
	// a constant compiles to a plain multiply-shift without the signed
	// fixups.
	c = int64(uint64(c) * uint64(th.speed) / 100)
	if c < 1 {
		c = 1
	}
	return c
}

// newIteration charges iteration bookkeeping, re-draws the thread's speed
// and applies a possible preemption stall.
//
//perple:hotpath cover=sim-synced-user
func (m *machine) newIteration(th *simThread, overhead int64) {
	th.time += overhead
	th.speed = 100 + m.draw(&m.jitterSpan)
	if th.speed < 10 {
		th.speed = 10
	}
	if m.cfg.PreemptProb > 0 && m.rng.Float64() < m.cfg.PreemptProb {
		stall := m.draw(&m.preemptSpan)
		th.time += stall
		if m.trace != nil {
			m.trace.add(TraceEvent{Time: th.time, Thread: th.id, Kind: TracePreempt, Iter: th.iter, Value: stall})
		}
	}
}

// drainNever is the nextDrainAt sentinel meaning "no store buffered":
// far enough in the future that no event-loop clock reaches it, yet not
// so large that settle's forever horizon fails to cross it.
const drainNever = int64(1) << 61

// applyDrains moves every pending store with drainAt ≤ upTo into shared
// memory, in global drain order (ties broken by thread id). Each
// thread's next drain is its buffer's peek: the FIFO head under TSO,
// the minimum cell-chain head under PSO (see storeBuf).
//
// m.nextDrainAt is a conservative lower bound on the earliest pending
// drain time — store lowers it on every push, and the full scan below
// restores it to the exact minimum head whenever it runs — so the
// common nothing-to-drain probe (every load pays one) is a single
// compare instead of a scan of all thread buffers.
//
//perple:hotpath cover=sim-synced-user
func (m *machine) applyDrains(upTo int64) {
	if upTo < m.nextDrainAt {
		return
	}
	for {
		best := -1
		var bestAt int64
		minAt := drainNever
		for _, th := range m.threads {
			e := th.buf.peek()
			if e == nil {
				continue
			}
			at := e.drainAt
			if at < minAt {
				minAt = at
			}
			if at <= upTo && (best < 0 || at < bestAt) {
				best, bestAt = th.id, at
			}
		}
		if best < 0 {
			m.nextDrainAt = minAt
			return
		}
		th := m.threads[best]
		e := th.buf.pop()
		m.mem[e.memIdx] = e.val
		if m.wit != nil {
			m.wit.drain(int(e.memIdx), e.val)
		}
		if m.trace != nil {
			m.trace.add(TraceEvent{Time: e.drainAt, Thread: th.id, Kind: TraceDrain, Loc: m.locOf(int(e.memIdx)), Value: e.val})
		}
	}
}

// settle drains every pending store regardless of time (end of run).
//
//perple:hotpath cover=sim-synced-user
func (m *machine) settle() {
	const forever = int64(1) << 62
	m.applyDrains(forever)
}

// store enqueues a value to cell memIdx of location loc with a strictly
// increasing drain time — across the whole buffer under TSO's single
// FIFO, per cell under PSO — then advances the thread clock.
//
// A push into a full ring first retires passed drains: every pending
// store, of any thread, whose drainAt is strictly before this store's
// clock. Event clocks never decrease and every later push drains at or
// after its own clock, so that set is final and precedes every later
// drain in (drainAt, thread id) order; memory at every load, witnesses
// and ticks are the same as if the next load had drained it. The
// strict bound keeps a drain at exactly this clock pending, so a
// later store by a lower-id thread at the same clock (DrainMin 0)
// still drains first. A writer with no loads thus holds only its
// stores still in flight instead of every store since its last reader
// finished. The one visible difference is the trace: a retired drain
// is recorded here, at the store, with the same event fields.
//
//perple:hotpath cover=sim-synced-user
func (m *machine) store(th *simThread, loc, memIdx int, val int64) {
	if th.buf.full() {
		m.applyDrains(th.time - 1)
	}
	drainAt := th.time + m.draw(&m.drainSpan)
	if m.pso {
		if e := th.buf.newest(loc, int32(memIdx)); e != nil && drainAt <= e.drainAt {
			drainAt = e.drainAt + 1
		}
	} else if drainAt <= th.buf.maxAt {
		// Under TSO the largest pending drain time is the newest entry's.
		drainAt = th.buf.maxAt + 1
	}
	th.buf.push(loc, bufEntry{memIdx: int32(memIdx), val: val, drainAt: drainAt})
	if drainAt < m.nextDrainAt {
		m.nextDrainAt = drainAt
	}
	if m.trace != nil {
		m.trace.add(TraceEvent{Time: th.time, Thread: th.id, Kind: TraceStore, Loc: m.locOf(memIdx),
			Value: val, Iter: th.iter, DrainAt: drainAt})
	}
	th.time += m.cost(th)
}

// load returns the value visible to the thread at cell memIdx of
// location loc: its own newest buffered store to the cell (forwarding)
// or shared memory, then advances the clock. widx is the load's dense
// witness index (-1 outside synced witness recording).
//
//perple:hotpath cover=sim-synced-user
func (m *machine) load(th *simThread, loc, memIdx int, widx int32) int64 {
	m.applyDrains(th.time)
	var v int64
	e := th.buf.newest(loc, int32(memIdx))
	forwarded := e != nil
	if forwarded {
		v = e.val
	} else {
		v = m.mem[memIdx]
	}
	if m.wit != nil && widx >= 0 {
		m.wit.load(widx, memIdx, v, forwarded)
	}
	if m.trace != nil {
		m.trace.add(TraceEvent{Time: th.time, Thread: th.id, Kind: TraceLoad, Loc: m.locOf(memIdx),
			Value: v, Iter: th.iter, Forwarded: forwarded})
	}
	th.time += m.cost(th)
	return v
}

// fence blocks the thread until its store buffer has fully drained.
//
//perple:hotpath cover=sim-synced-user
func (m *machine) fence(th *simThread) {
	th.time = max(th.time, th.buf.maxAt) + m.cfg.FenceCost
	if m.trace != nil {
		m.trace.add(TraceEvent{Time: th.time, Thread: th.id, Kind: TraceFence, Iter: th.iter})
	}
}

// minThreadInBody picks the smallest-clock thread still inside its
// iteration body (pc not past the program end); nil when every thread
// has finished its body. Specialized from the old closure-driven
// minTimeThread so the per-event scheduling probe is a direct inlinable
// comparison.
//
//perple:hotpath cover=sim-synced-user
func (m *machine) minThreadInBody() *simThread {
	var best *simThread
	for _, th := range m.threads {
		if th.pc >= len(th.prog.code) {
			continue
		}
		if best == nil || th.time < best.time || (th.time == best.time && th.id < best.id) {
			best = th
		}
	}
	return best
}

// minThreadBelowIter picks the smallest-clock thread with iterations
// left to run; nil when every thread has completed n iterations.
//
//perple:hotpath cover=sim-synced-free
func (m *machine) minThreadBelowIter(n int) *simThread {
	var best *simThread
	for _, th := range m.threads {
		if th.iter >= n {
			continue
		}
		if best == nil || th.time < best.time || (th.time == best.time && th.id < best.id) {
			best = th
		}
	}
	return best
}

//perple:hotpath cover=sim-synced-user
func (m *machine) maxTime() int64 {
	var max int64
	for _, th := range m.threads {
		if th.time > max {
			max = th.time
		}
	}
	return max
}

// ----- litmus7-style synchronized event loops -----

// runBarriered executes iteration-by-iteration with a barrier release
// before each.
//
//perple:hotpath cover=sim-synced-user
func (m *machine) runBarriered(n int, p modeParams, res *SyncedResult) {
	// Mode-derived draw spans, fixed for the whole run.
	costJitterSpan := makeDrawSpan(-p.barrierTicks/10, p.barrierTicks/10)
	releaseSpan := makeDrawSpan(0, p.releaseSpread)
	staggerSpan := makeDrawSpan(-p.stagger/4, p.stagger/4)
	for iter := 0; iter < n; iter++ {
		if m.cancelled() {
			return
		}
		// All threads arrive; the barrier charges its cost from the last
		// arrival and releases everyone with mode-specific spread.
		arrival := m.maxTime()
		costJitter := m.draw(&costJitterSpan)
		release := arrival + p.barrierTicks + costJitter
		for _, th := range m.threads {
			off := m.draw(&releaseSpan)
			if p.stagger > 0 {
				off += int64(th.id) * (p.stagger + m.draw(&staggerSpan))
			}
			if p.flush {
				// userfence: propagate pending writes during the barrier.
				release = max(release, th.buf.maxAt)
			}
			th.time = release + off
			th.pc = 0
			th.iter = iter
			m.newIteration(th, p.iterOverhead)
		}
		// Event loop over this iteration's bodies.
		for {
			th := m.minThreadInBody()
			if th == nil {
				break
			}
			m.step(th, res)
		}
	}
}

// runFree executes all iterations continuously with no barriers.
//
//perple:hotpath cover=sim-synced-free
func (m *machine) runFree(n int, p modeParams, res *SyncedResult) {
	for _, th := range m.threads {
		th.time = m.draw(&m.launchSpan)
		m.newIteration(th, p.iterOverhead)
	}
	for {
		if m.cancelled() {
			return
		}
		th := m.minThreadBelowIter(n)
		if th == nil {
			break
		}
		m.step(th, res)
		if th.pc >= len(th.prog.code) {
			th.pc = 0
			th.iter++
			if th.iter < n {
				m.newIteration(th, p.iterOverhead)
			}
		}
	}
}

// step executes one bytecode instruction of a synced-mode thread.
//
//perple:hotpath cover=sim-synced-user
func (m *machine) step(th *simThread, res *SyncedResult) {
	w := th.prog.code[th.pc]
	switch w & bcOpMask {
	case bcStore:
		loc := bcLoc(w)
		m.store(th, loc, loc*res.N+th.iter, th.prog.v1[th.pc])
	case bcLoad:
		loc := bcLoc(w)
		v := m.load(th, loc, loc*res.N+th.iter, bcWidx(w))
		res.Regs[th.id][th.iter*res.RegCounts[th.id]+bcReg(w)] = v
	default:
		m.fence(th)
	}
	th.pc++
}

// ----- PerpLE-style perpetual event loop -----

// runPerpetual executes n synchronization-free iterations, recording
// every load into the buf arrays. reads[t] is the per-iteration load
// count of thread t (the buf stride).
func (m *machine) runPerpetual(ctx context.Context, n int, bufs *core.BufSet, reads []int) error {
	for {
		if m.cancelled() {
			return fmt.Errorf("sim: perpetual run aborted: %w", ctx.Err())
		}
		th := m.minThreadBelowIter(n)
		if th == nil {
			return nil
		}
		w := th.prog.code[th.pc]
		switch w & bcOpMask {
		case bcStore:
			loc := bcLoc(w)
			m.store(th, loc, loc, th.prog.v1[th.pc]*int64(th.iter)+th.prog.v2[th.pc])
		case bcLoad:
			loc := bcLoc(w)
			v := m.load(th, loc, loc, -1)
			bufs.Bufs[th.id][reads[th.id]*th.iter+bcReg(w)] = v
		default:
			m.fence(th)
		}
		th.pc++
		if th.pc >= len(th.prog.code) {
			th.pc = 0
			th.iter++
			if th.iter < n {
				m.newIteration(th, m.cfg.PerpIterOverhead)
			}
		}
	}
}
