package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// liveEntries returns the live entries oldest first by walking the
// sequence window.
func liveEntries(b *storeBuf) []bufEntry {
	var out []bufEntry
	for s := b.lo; s < b.hi; s++ {
		if e := b.slot(s); e.memIdx >= 0 {
			out = append(out, *e)
		}
	}
	return out
}

func TestStoreBufFIFOOrder(t *testing.T) {
	var b storeBuf
	b.reset(false, 1)
	for i := 0; i < 100; i++ {
		b.push(0, bufEntry{memIdx: int32(i), val: int64(i), drainAt: int64(i)})
	}
	if b.n != 100 {
		t.Fatalf("len = %d, want 100", b.n)
	}
	for i := 0; i < 100; i++ {
		e := b.pop()
		if e.memIdx != int32(i) {
			t.Fatalf("pop #%d returned memIdx %d", i, e.memIdx)
		}
	}
	if b.n != 0 || b.peek() != nil {
		t.Fatalf("len = %d after draining, want 0", b.n)
	}
}

func TestStoreBufWraparound(t *testing.T) {
	// Interleave pushes and front pops so the live window crosses the
	// physical end of the storage many times.
	var b storeBuf
	b.reset(false, 1)
	next, expect := 0, 0
	for round := 0; round < 500; round++ {
		for i := 0; i < 3; i++ {
			b.push(0, bufEntry{memIdx: int32(next), drainAt: int64(next)})
			next++
		}
		for i := 0; i < 2; i++ {
			if e := b.pop(); e.memIdx != int32(expect) {
				t.Fatalf("round %d: popped %d, want %d", round, e.memIdx, expect)
			}
			expect++
		}
	}
	// Drain the backlog, still in FIFO order.
	for b.n > 0 {
		if e := b.pop(); e.memIdx != int32(expect) {
			t.Fatalf("drain: popped %d, want %d", e.memIdx, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d entries, pushed %d", expect, next)
	}
}

func TestStoreBufInteriorRemovePreservesOrder(t *testing.T) {
	// PSO drains from mid-window leave holes rather than shifting; the
	// survivors must keep their program order, including across wrapped
	// windows and a grow while holes are present.
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		var b storeBuf
		b.reset(true, 4)
		// Randomize the window position via push/pop churn.
		churn := rng.Intn(20)
		for i := 0; i < churn; i++ {
			b.push(0, bufEntry{memIdx: 0, drainAt: int64(i)})
		}
		for i := 0; i < churn; i++ {
			b.pop()
		}
		// One cell per location, drain times strictly increasing per
		// cell but interleaved across cells, so pops come from
		// everywhere in the window.
		var ref []int32
		last := [4]int64{}
		for i := 0; i < 2+rng.Intn(40); i++ {
			loc := rng.Intn(4)
			last[loc] += 1 + int64(rng.Intn(30))
			b.push(loc, bufEntry{memIdx: int32(loc), val: int64(i), drainAt: last[loc]})
			ref = append(ref, int32(i))
		}
		for b.n > 0 {
			e := b.pop()
			for j, v := range ref {
				if int64(v) == e.val {
					ref = append(ref[:j], ref[j+1:]...)
					break
				}
			}
			got := liveEntries(&b)
			if len(got) != len(ref) {
				t.Fatalf("round %d: len = %d, want %d", round, len(got), len(ref))
			}
			for j, e := range got {
				if e.val != int64(ref[j]) {
					t.Fatalf("round %d: live #%d = %d, want %d", round, j, e.val, ref[j])
				}
			}
		}
	}
}

func TestStoreBufGrowthKeepsOrder(t *testing.T) {
	// Force a grow while the window is wrapped: fill, pop a few, push past
	// the original capacity.
	var b storeBuf
	b.reset(false, 1)
	for i := 0; i < 8; i++ {
		b.push(0, bufEntry{memIdx: int32(i), drainAt: int64(i)})
	}
	for i := 0; i < 5; i++ {
		b.pop()
	}
	for i := 8; i < 40; i++ {
		b.push(0, bufEntry{memIdx: int32(i), drainAt: int64(i)})
	}
	want := 5
	for b.n > 0 {
		if e := b.pop(); e.memIdx != int32(want) {
			t.Fatalf("popped %d, want %d", e.memIdx, want)
		}
		want++
	}
	if want != 40 {
		t.Fatalf("drained up to %d, want 40", want)
	}
}

func TestStoreBufReset(t *testing.T) {
	var b storeBuf
	b.reset(true, 2)
	for i := 0; i < 10; i++ {
		b.push(i%2, bufEntry{memIdx: int32(i % 2), drainAt: int64(i)})
	}
	b.pop()
	b.reset(true, 2)
	if b.n != 0 || b.peek() != nil {
		t.Fatalf("len = %d after reset, want 0", b.n)
	}
	if e := b.newest(1, 1); e != nil {
		t.Fatalf("newest after reset = %+v, want none", *e)
	}
	b.push(1, bufEntry{memIdx: 1, val: 99, drainAt: 3})
	if e := b.peek(); e == nil || e.val != 99 {
		t.Fatalf("peek after reset+push = %v, want val 99", e)
	}
}

// refEntry is one pending store of the reference buffer.
type refEntry struct {
	memIdx  int32
	val     int64
	drainAt int64
}

// refBuf is the naive reference storeBuf must match: a plain slice in
// program order answered by linear scans, which is how the engine
// queried its buffers before the indexed ring.
type refBuf struct{ e []refEntry }

// next is the first minimum drainAt in program order: index 0 under TSO
// (the FIFO head), the first-minimum scan under PSO.
func (r *refBuf) next(pso bool) int {
	if len(r.e) == 0 {
		return -1
	}
	best := 0
	if pso {
		for i := 1; i < len(r.e); i++ {
			if r.e[i].drainAt < r.e[best].drainAt {
				best = i
			}
		}
	}
	return best
}

// fence is the latest pending drain time, -1 for an empty buffer.
func (r *refBuf) fence() int64 {
	m := int64(-1)
	for _, e := range r.e {
		m = max(m, e.drainAt)
	}
	return m
}

func (r *refBuf) forward(memIdx int32) (refEntry, bool) {
	for i := len(r.e) - 1; i >= 0; i-- {
		if r.e[i].memIdx == memIdx {
			return r.e[i], true
		}
	}
	return refEntry{}, false
}

// TestStoreBufMatchesReference drives storeBuf and the naive reference
// with identical random push / drain-up-to-t / fence / forward
// sequences under TSO and PSO, and requires identical drain order,
// fence times and forwarded values. Stores go through the engine's
// drain-time fix-up (strictly increasing per FIFO or per cell), and
// raw drain times come from a narrow range so equal drainAt across
// locations — the tie the first-minimum rule breaks by program order —
// is common. Cells advance per "iteration" like synced runs
// (memIdx = loc·cells + iter) or stay one per location like perpetual
// runs; writer-only stretches with no drains push the ring through
// several grows.
func TestStoreBufMatchesReference(t *testing.T) {
	const nlocs = 3
	for _, pso := range []bool{false, true} {
		for _, cells := range []int{1, 64} {
			name := fmt.Sprintf("pso=%v/cells=%d", pso, cells)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(cells) + 100))
				var b storeBuf
				var ref refBuf
				b.reset(pso, nlocs)
				var now int64
				iter := 0
				tail := 0 // remaining writer-only pushes
				for op := 0; op < 40000; op++ {
					now += int64(rng.Intn(3))
					if cells > 1 && rng.Intn(8) == 0 && iter < cells-1 {
						iter++
					}
					if tail == 0 && rng.Intn(500) == 0 {
						tail = 200 + rng.Intn(800)
					}
					r := rng.Intn(10)
					if tail > 0 {
						tail--
						r = 0
					}
					switch {
					case r < 4: // push, with the engine's fix-up
						loc := rng.Intn(nlocs)
						memIdx := int32(loc*cells + iter)
						drainAt := now + int64(rng.Intn(6))
						if pso {
							want, ok := ref.forward(memIdx)
							got := b.newest(loc, memIdx)
							if ok != (got != nil) || ok && got.drainAt != want.drainAt {
								t.Fatalf("op %d: same-cell lookup = %v, want %v (%v)", op, got, want, ok)
							}
							if got != nil && drainAt <= got.drainAt {
								drainAt = got.drainAt + 1
							}
						} else {
							if n := len(ref.e); n > 0 && b.maxAt != ref.e[n-1].drainAt {
								t.Fatalf("op %d: maxAt = %d, want newest %d", op, b.maxAt, ref.e[n-1].drainAt)
							}
							if drainAt <= b.maxAt {
								drainAt = b.maxAt + 1
							}
						}
						e := refEntry{memIdx: memIdx, val: int64(op), drainAt: drainAt}
						ref.e = append(ref.e, e)
						b.push(loc, bufEntry{memIdx: e.memIdx, val: e.val, drainAt: e.drainAt})
					case r < 7: // drain up to now, as applyDrains does
						for {
							i := ref.next(pso)
							got := b.peek()
							if (i < 0) != (got == nil) {
								t.Fatalf("op %d: peek = %v, reference next = %d", op, got, i)
							}
							if i < 0 || ref.e[i].drainAt > now {
								if got != nil && got.drainAt != ref.e[i].drainAt {
									t.Fatalf("op %d: peek drainAt %d, want %d", op, got.drainAt, ref.e[i].drainAt)
								}
								break
							}
							want := ref.e[i]
							ref.e = append(ref.e[:i], ref.e[i+1:]...)
							e := b.pop()
							if e.memIdx != want.memIdx || e.val != want.val || e.drainAt != want.drainAt {
								t.Fatalf("op %d: drained %+v, want %+v", op, e, want)
							}
						}
					case r < 8: // fence
						if b.n != len(ref.e) {
							t.Fatalf("op %d: len = %d, want %d", op, b.n, len(ref.e))
						}
						if b.maxAt != ref.fence() {
							t.Fatalf("op %d: fence time %d, want %d", op, b.maxAt, ref.fence())
						}
					case r < 9: // forward
						loc := rng.Intn(nlocs)
						memIdx := int32(loc*cells + iter)
						want, ok := ref.forward(memIdx)
						got := b.newest(loc, memIdx)
						if ok != (got != nil) || ok && got.val != want.val {
							t.Fatalf("op %d: forward(%d) = %v, want %v (%v)", op, memIdx, got, want, ok)
						}
					default:
						if rng.Intn(50) == 0 { // end of run
							b.reset(pso, nlocs)
							ref.e = ref.e[:0]
							iter = 0
						}
					}
				}
			})
		}
	}
}
