package core

// Bound arithmetic shared by PerpLE's interpreted counters and the
// Converter's generated COUNT/COUNTH sources. The Converter emits this
// file verbatim after its package clause, so it imports nothing and
// names no package types.

// floorDiv divides rounding towards negative infinity (b > 0).
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// ceilDiv divides rounding towards positive infinity (b > 0).
func ceilDiv(a, b int64) int64 {
	return -floorDiv(-a, b)
}

// rfBound returns the largest iteration m of the target store (thread
// varThread, instruction index storeIdx) such that reading x proves the
// load happened at or after that iteration's drain, and ok=false when x
// proves nothing (zero, or another thread's value). The location's
// values run over k sequences; offset a (1-based) was stored by thread
// seqThread[a-1] at instruction index seqIdx[a-1].
func rfBound(x, k int64, varThread, storeIdx int, seqThread, seqIdx []int) (int64, bool) {
	if x <= 0 {
		return 0, false
	}
	a := (x-1)%k + 1
	m := (x - a) / k
	if seqThread[a-1] != varThread {
		return 0, false
	}
	if seqIdx[a-1] < storeIdx {
		m--
	}
	if m < 0 {
		return 0, false
	}
	return m, true
}

// frBound returns the smallest iteration m of the target store such that
// reading x indicates the load happened before that iteration's drain.
// Reading 0 indicates it for every m ≥ 0; a same-thread value gives the
// exact FIFO-drain bound; another thread's value uses the paper's
// numeric relaxation, which needs the target store's offset a0:
// x ≤ k·m + a0 − 1 ⇒ m ≥ ceil((x − a0 + 1) / k), clamped at 0. The
// counters call it per frame, so it is kept within the inliner's budget.
func frBound(x, k int64, a0 int64, varThread, storeIdx int, seqThread, seqIdx []int) (int64, bool) {
	if x <= 0 {
		return 0, x == 0
	}
	a := (x-1)%k + 1
	if seqThread[a-1] != varThread {
		if y := x - a0 + 1; y > 0 {
			return (y-1)/k + 1, true
		}
		return 0, true
	}
	m := (x - a) / k
	if storeIdx <= seqIdx[a-1] {
		m++
	}
	return m, true
}
