package sim

// bufEntry is a pending store awaiting drain to shared memory.
type bufEntry struct {
	val     int64
	drainAt int64
	memIdx  int32 // memory cell; -1 marks a PSO hole (drained mid-window)
	next    int32 // PSO: sequence distance to the next same-cell entry, 0 if none
}

// storeBuf is one thread's pending stores: a reusable ring in program
// order plus the indexes that make every per-event query independent of
// the buffer's length. The backing arrays are kept across runs (reset
// does not free), so a steady-state iteration loop performs no
// store-buffer allocation at all.
//
// Entries are addressed by absolute sequence number (program order):
// entry seq lives in slot seq&(len(e)-1), and the window [lo, hi) from
// the oldest live entry to the next sequence number never exceeds the
// ring, so grow re-slots entries without invalidating any stored
// sequence number. A PSO drain from mid-window marks its entry dead
// (memIdx -1) and lo skips past dead entries, so it leaves a hole
// instead of shifting its neighbours.
//
// The engine's store keeps these invariants, and the queries rest on
// them:
//
//   - TSO: drainAt strictly increases along the FIFO, so the next drain
//     is the oldest entry — O(1).
//   - PSO: drainAt strictly increases per memory cell, so the next drain
//     is the minimum over the cells' oldest entries, ties broken by
//     earliest program order (the first minimum of a front-to-back
//     scan). Same-cell entries are chained by next, and a binary heap
//     over the chain heads keyed (drainAt, seq) answers the minimum in
//     O(1) and drains in O(log #chains); perpetual runs have one chain
//     per location at most.
//   - Both: only the minimum is ever drained, so the largest pending
//     drainAt cannot fall until the buffer empties; maxAt, tracked on
//     push, answers fence and the userfence flush in O(1).
//   - A thread addresses each location's cells in non-decreasing
//     memIdx order (one cell per location in perpetual runs, one per
//     iteration in synced ones), so the newest entry at a location is
//     the only candidate for forwarding and for the same-cell drain
//     fix-up: locTail answers both in O(1).
type storeBuf struct {
	e       []bufEntry // ring storage; len(e) is 0 or a power of two
	lo, hi  int        // oldest live sequence number; next sequence number
	n       int        // live entry count
	maxAt   int64      // largest pending drainAt; -1 when empty (drain times are ≥ 0)
	pso     bool       // per-cell drain order (heads) instead of the FIFO
	locTail []int      // newest sequence number stored per location; -1 for none
	heads   []int      // PSO: min-heap of cell-chain head sequence numbers
}

// slot returns the entry for sequence number s, which must lie in
// [lo, hi); the pointer is invalidated by push.
//
//perple:hotpath cover=sim-synced-user
func (b *storeBuf) slot(s int) *bufEntry { return &b.e[s&(len(b.e)-1)] }

// reset empties the buffer for a run over nlocs locations under the
// given drain order, keeping the backing arrays for reuse.
func (b *storeBuf) reset(pso bool, nlocs int) {
	b.lo, b.hi, b.n, b.maxAt, b.pso = 0, 0, 0, -1, pso
	b.heads = b.heads[:0]
	if cap(b.locTail) < nlocs {
		b.locTail = make([]int, nlocs)
	}
	b.locTail = b.locTail[:nlocs]
	for i := range b.locTail {
		b.locTail[i] = -1
	}
}

// push appends a new youngest entry for location loc, growing the ring
// if full. e.drainAt must respect the model's order (see storeBuf) and
// e.next must be zero.
//
//perple:hotpath cover=sim-synced-user
func (b *storeBuf) push(loc int, e bufEntry) {
	if b.hi-b.lo == len(b.e) {
		// The make inside grow is inlined here by the compiler (-escapes
		// attributes it to this line). Growth is amortized warm-up only:
		// reset keeps the backing array, so steady-state iteration never
		// takes this branch — the allocs sweep proves 0 allocs/op.
		//perple:allow hotalloc amortized ring growth; reset reuses the backing array
		b.grow()
	}
	seq := b.hi
	b.hi++
	b.maxAt = max(b.maxAt, e.drainAt)
	b.n++
	*b.slot(seq) = e
	if b.pso {
		if t := b.locTail[loc]; t >= b.lo && b.slot(t).memIdx == e.memIdx {
			b.slot(t).next = int32(seq - t)
		} else {
			b.pushHead(seq)
		}
	}
	b.locTail[loc] = seq
}

// newest returns the youngest pending entry for cell memIdx at location
// loc, or nil if none is pending.
//
//perple:hotpath cover=sim-synced-user
func (b *storeBuf) newest(loc int, memIdx int32) *bufEntry {
	if t := b.locTail[loc]; t >= b.lo {
		if e := b.slot(t); e.memIdx == memIdx {
			return e
		}
	}
	return nil
}

// peek returns the entry that drains next, or nil for an empty buffer.
//
//perple:hotpath cover=sim-synced-user
func (b *storeBuf) peek() *bufEntry {
	if b.n == 0 {
		return nil
	}
	if b.pso {
		return b.slot(b.heads[0])
	}
	return b.slot(b.lo)
}

// pop removes and returns the entry peek reports; the buffer must be
// non-empty.
//
//perple:hotpath cover=sim-synced-user
func (b *storeBuf) pop() bufEntry {
	b.n--
	if b.n == 0 {
		b.maxAt = -1
	}
	if !b.pso {
		// The FIFO head drains: the window just advances past it.
		b.lo++
		return *b.slot(b.lo - 1)
	}
	s := b.heads[0]
	p := b.slot(s)
	if p.next > 0 {
		b.heads[0] = s + int(p.next)
	} else {
		last := len(b.heads) - 1
		b.heads[0] = b.heads[last]
		b.heads = b.heads[:last]
	}
	b.siftDown(0)
	e := *p
	p.memIdx = -1
	for b.lo < b.hi && b.slot(b.lo).memIdx < 0 {
		b.lo++
	}
	return e
}

func (b *storeBuf) grow() {
	ne := make([]bufEntry, max(8, 2*len(b.e)))
	for s := b.lo; s < b.hi; s++ {
		ne[s&(len(ne)-1)] = *b.slot(s)
	}
	b.e = ne
}

// headLess orders chain heads s and t by (drainAt, seq).
//
//perple:hotpath cover=sim-synced-pso
func (b *storeBuf) headLess(s, t int) bool {
	ds, dt := b.slot(s).drainAt, b.slot(t).drainAt
	return ds < dt || ds == dt && s < t
}

// pushHead adds a new cell chain's head to the heap.
//
//perple:hotpath cover=sim-synced-pso
func (b *storeBuf) pushHead(s int) {
	b.heads = append(b.heads, s)
	h := b.heads
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !b.headLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// siftDown restores the heap below index i after its key grew.
//
//perple:hotpath cover=sim-synced-pso
func (b *storeBuf) siftDown(i int) {
	h := b.heads
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && b.headLess(h[c+1], h[c]) {
			c++
		}
		if !b.headLess(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
