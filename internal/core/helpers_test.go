package core

import "testing"

// boundCase is one input to the bound helpers, decoded from fuzz bytes:
// a location of k sequences whose offset a (1-based) is stored by
// thread seqThread[a-1] at instruction index seqIdx[a-1], a target store
// (thread varThread, index storeIdx, offset a0) and a loaded value x.
type boundCase struct {
	k, a0, x            int64
	varThread, storeIdx int
	seqThread, seqIdx   []int
}

func decodeBoundCase(k, threads, idxs, varThread, storeIdx, a0 uint8, x int16) boundCase {
	c := boundCase{
		k:         int64(k%4) + 1,
		a0:        int64(a0%8) + 1,
		x:         int64(x % 512),
		varThread: int(varThread % 4),
		storeIdx:  int(storeIdx % 4),
	}
	for i := 0; i < int(c.k); i++ {
		c.seqThread = append(c.seqThread, int(threads>>(2*i)&3))
		c.seqIdx = append(c.seqIdx, int(idxs>>(2*i)&3))
	}
	return c
}

// source finds by search the offset a and iteration it of the store
// that wrote x > 0: the one with k·it + a = x.
func (c boundCase) source() (a, it int64) {
	for it = 0; ; it++ {
		for a = 1; a <= c.k; a++ {
			if c.k*it+a == c.x {
				return a, it
			}
		}
	}
}

// drainsBy reports whether the target store's iteration-m drain comes at
// or before the drain of store (it, idx) of the same thread, whose
// buffer drains in program order.
func (c boundCase) drainsBy(m, it int64, idx int) bool {
	return m < it || m == it && c.storeIdx <= idx
}

// refRF is rfBound by brute force: the largest m ≥ 0 whose drain is at
// or before that of x's source store, which must be the target's thread.
func (c boundCase) refRF() (int64, bool) {
	if c.x <= 0 {
		return 0, false
	}
	a, it := c.source()
	if c.seqThread[a-1] != c.varThread {
		return 0, false
	}
	best, ok := int64(0), false
	for m := int64(0); m <= it+1; m++ {
		if c.drainsBy(m, it, c.seqIdx[a-1]) {
			best, ok = m, true
		}
	}
	return best, ok
}

// refFR is frBound by brute force: every m for 0, none for negative
// values, the smallest m whose drain is strictly after that of x's
// same-thread source store, and for another thread's value the smallest
// m with k·m + a0 − 1 ≥ x.
func (c boundCase) refFR() (int64, bool) {
	if c.x == 0 {
		return 0, true
	}
	if c.x < 0 {
		return 0, false
	}
	a, it := c.source()
	for m := int64(0); ; m++ {
		if c.seqThread[a-1] != c.varThread {
			if c.k*m+c.a0-1 >= c.x {
				return m, true
			}
		} else if !c.drainsBy(m, it, c.seqIdx[a-1]) {
			return m, true
		}
	}
}

// refFloorDiv and refCeilDiv search for the largest q with q·b ≤ a and
// the smallest q with q·b ≥ a (b > 0).
func refFloorDiv(a, b int64) int64 {
	q := -abs64(a) - 1
	for (q+1)*b <= a {
		q++
	}
	return q
}

func refCeilDiv(a, b int64) int64 {
	q := -abs64(a) - 1
	for q*b < a {
		q++
	}
	return q
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// FuzzBoundsVsBruteForce holds the shared bound helpers — the arithmetic
// both the interpreted counters and the generated ones run, so the
// codegen differential cannot see a fault in it — to brute-force
// references over k ∈ 1..4 sequences, random sequence tables, target
// stores and loaded values. The seeds cover every branch of rfBound and
// frBound.
func FuzzBoundsVsBruteForce(f *testing.F) {
	// Arguments: k, seqThread (2 bits per offset), seqIdx (2 bits per
	// offset), varThread, storeIdx, a0, x.
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), int16(0))                // x = 0
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), int16(-3))               // negative x
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), int16(7))                // k=1, same thread, same store
	f.Add(uint8(1), uint8(0b0100), uint8(0), uint8(0), uint8(0), uint8(0), int16(6))           // k=2, x from another thread
	f.Add(uint8(1), uint8(0), uint8(0b0100), uint8(0), uint8(1), uint8(1), int16(5))           // k=2, earlier store of the thread: m--
	f.Add(uint8(1), uint8(0), uint8(0b0100), uint8(0), uint8(1), uint8(1), int16(1))           // m-- below 0 in iteration 0
	f.Add(uint8(1), uint8(0), uint8(0b0100), uint8(0), uint8(0), uint8(0), int16(4))           // later store of the thread: fr m++
	f.Add(uint8(2), uint8(0b100100), uint8(0b001000), uint8(1), uint8(2), uint8(1), int16(11)) // k=3, mixed table
	f.Add(uint8(3), uint8(0b11100100), uint8(0), uint8(3), uint8(0), uint8(7), int16(1))       // cross-thread fr clamped at 0
	f.Fuzz(func(t *testing.T, k, threads, idxs, varThread, storeIdx, a0 uint8, x int16) {
		c := decodeBoundCase(k, threads, idxs, varThread, storeIdx, a0, x)
		m, ok := rfBound(c.x, c.k, c.varThread, c.storeIdx, c.seqThread, c.seqIdx)
		if wm, wok := c.refRF(); ok != wok || ok && m != wm {
			t.Errorf("%+v: rfBound = %d,%v, brute force %d,%v", c, m, ok, wm, wok)
		}
		m, ok = frBound(c.x, c.k, c.a0, c.varThread, c.storeIdx, c.seqThread, c.seqIdx)
		if wm, wok := c.refFR(); ok != wok || ok && m != wm {
			t.Errorf("%+v: frBound = %d,%v, brute force %d,%v", c, m, ok, wm, wok)
		}
		if got, want := floorDiv(c.x, c.k), refFloorDiv(c.x, c.k); got != want {
			t.Errorf("floorDiv(%d, %d) = %d, brute force %d", c.x, c.k, got, want)
		}
		if got, want := ceilDiv(c.x, c.k), refCeilDiv(c.x, c.k); got != want {
			t.Errorf("ceilDiv(%d, %d) = %d, brute force %d", c.x, c.k, got, want)
		}
	})
}
