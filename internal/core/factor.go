package core

import (
	"context"
	"math"
	"math/bits"
)

// This file implements the factorized exhaustive counter: the same exact
// per-outcome tallies as CountExhaustive's N^TL odometer, computed in
// near-linear work by exploiting the product structure of perpetual
// outcomes.
//
// A converted outcome is a conjunction of constraints, each coupling at
// most two frame variables: a clause either mentions a single load
// thread (an EQZero check, a self-referential rf/fr bound, or an
// existential store-only thread observed from one load thread only), or
// it relates exactly two load threads (a cross rf/fr bound, or an
// existential thread observed from two load threads, whose interval
// intersection couples them). The satisfying frame set is therefore a
// "product-form" set: per-thread index bitsets joined by per-pair 0/1
// relations. Counting such a set needs no frame walk:
//
//   - no pair relations: the set is a rectangle; the count is the
//     product of per-thread popcounts;
//   - TL ≤ 3 with pair relations: one pass over the first thread's
//     indices, intersecting relation rows word-wise and popcounting.
//
// Every pairwise clause is a threshold relation: an rf bound admits a
// prefix [0, ub] of the target's iterations and an fr bound a suffix
// [lb, ∞). A cross bound referenced from the pair's first thread p
// confines each row i to a column interval; one referenced from the
// second thread q confines each column j to a row interval; and a
// shared existential with per-side intervals [Lp(i), Hp(i)] and
// [Lq(j), Hq(j)] holds iff each side's interval is non-empty and
// Lp(i) ≤ Hq(j) and Lq(j) ≤ Hp(i). Each of those is "column key ≥ (or ≤)
// row threshold", so a pair matrix is built by bucket-sorting columns by
// key and rows by threshold and sweeping the thresholds once, growing an
// accumulator bitset that is ANDed into each row: O(N·N/64) word
// operations per predicate instead of N² cell evaluations. The innermost
// pair of the counting loop ((0,1) at TL=2, (1,2) at TL=3) is not built
// at all when its clause is one-sided: each row (or column) is then an
// index interval, counted in O(1) from a prefix-popcount table of the
// inner bitset.
//
// First-match-wins multi-outcome semantics are recovered by
// inclusion–exclusion over the earlier outcomes' product-form sets:
// counts[i] = Σ_{S ⊆ {0..i-1}} (−1)^|S| · |A_i ∩ ∩_{j∈S} A_j|, where
// every intersection is again product-form (bitsets AND per thread,
// relations AND per pair; same-orientation intervals intersect as
// intervals) and subtrees whose running intersection is empty are
// pruned — disjoint outcomes, the common case, cost one term.
//
// Shapes outside the product form fall back to the odometer: an
// existential thread observed from three or more load threads (a
// genuinely ternary clause), cross constraints with TL ≥ 4 (the counting
// pass is specialized to TL ≤ 3), outcome sets too large for
// inclusion–exclusion, and pair-matrix footprints past the memory
// guard. CountExhaustive remains the reference implementation; the
// differential tests in factor_test.go hold the two bit-for-bit equal.

// maxFactorOutcomes caps the outcome-set size the planner accepts, and
// maxFactorIETerms bounds the inclusion–exclusion work per outcome at
// run time: disjoint outcome chains (every full ConvertAllOutcomes set —
// distinct concrete register assignments) prune to O(k) live terms, but
// adversarially overlapping sets degrade toward 2^(k-1) terms, so the
// count aborts to the odometer once the term budget is spent.
const (
	maxFactorOutcomes = 256
	maxFactorIETerms  = 1 << 14
)

// maxFactorMatrixBytes bounds the live pair-matrix footprint: the
// per-outcome matrices plus the inclusion–exclusion stack, whose depth
// is capped by what is left. Counts past it fall back to the odometer
// rather than allocating gigabytes.
const maxFactorMatrixBytes = 64 << 20

// ----- bitsets and bit matrices -----

type bitset []uint64

func bitsetWords(n int) int { return (n + 63) / 64 }

func (b bitset) unset(i int) { b[i>>6] &^= 1 << uint(i&63) }

func (b bitset) popcount() int64 {
	var c int64
	for _, w := range b {
		c += int64(bits.OnesCount64(w))
	}
	return c
}

func popcountAnd(a, b bitset) int64 {
	var c int64
	for i, w := range a {
		c += int64(bits.OnesCount64(w & b[i]))
	}
	return c
}

func andInto(dst, a, b bitset) {
	for i := range dst {
		dst[i] = a[i] & b[i]
	}
}

// setRange makes b exactly the index interval [lo, hi] (empty if lo > hi).
func setRange(b bitset, lo, hi int32) {
	for w := range b {
		b[w] = 0
	}
	if lo > hi {
		return
	}
	lw, hw := lo>>6, hi>>6
	lm := ^uint64(0) << uint(lo&63)
	hm := ^uint64(0) >> uint(63-hi&63)
	if lw == hw {
		b[lw] = lm & hm
		return
	}
	b[lw] = lm
	for w := lw + 1; w < hw; w++ {
		b[w] = ^uint64(0)
	}
	b[hw] = hm
}

// andRange restricts b to the index interval [lo, hi].
func andRange(b bitset, lo, hi int32) {
	if lo > hi {
		for w := range b {
			b[w] = 0
		}
		return
	}
	lw, hw := int(lo>>6), int(hi>>6)
	for w := 0; w < lw; w++ {
		b[w] = 0
	}
	for w := hw + 1; w < len(b); w++ {
		b[w] = 0
	}
	b[lw] &= ^uint64(0) << uint(lo&63)
	b[hw] &= ^uint64(0) >> uint(63-hi&63)
}

// bitMatrix is an n×n 0/1 matrix over frame-index pairs, row-major with
// word-aligned rows.
type bitMatrix struct {
	words int
	rows  []uint64
}

func (m *bitMatrix) row(i int) bitset { return m.rows[i*m.words : (i+1)*m.words] }

// ----- per-outcome factorization plan (independent of N) -----

// pairSlot maps an ordered load-thread position pair to its matrix slot:
// (0,1)→0, (0,2)→1, (1,2)→2. Valid for TL ≤ 3.
func pairSlot(p, q int) int {
	if p == 0 {
		return q - 1 // (0,1)→0, (0,2)→1
	}
	return 2 // (1,2)
}

// innerSlot is the pair the counting pass visits innermost: (0,1) at
// TL=2 and (1,2) at TL=3. Only it may stay in interval form.
func innerSlot(tl int) int {
	if tl == 3 {
		return 2
	}
	return 0
}

// pairForm tells how a pair relation over positions (p, q) is stored.
type pairForm uint8

const (
	pairNone   pairForm = iota // unconstrained
	pairRows                   // row i admits columns [lo[i], hi[i]]
	pairCols                   // column j admits rows [lo[j], hi[j]]
	pairMatrix                 // explicit bit matrix
)

// outcomePlan classifies one outcome's constraints by the frame
// variables they couple. A nil plan means the outcome is not
// factorizable and the whole counter falls back to the odometer.
type outcomePlan struct {
	empty bool // Unsatisfiable: the empty set

	// Constraint indices local to one position (EQZero and self bounds).
	unaryEQ   [][]int
	unarySelf [][]int
	// unaryExist[p] lists, per existential variable observed from
	// position p alone, the constraints bounding it.
	unaryExist [][][]int
	// Cross rf/fr constraints per pair slot (p, q), split by the end that
	// references them: crossP bounds each row's columns, crossQ each
	// column's rows.
	crossP, crossQ [3][]int
	// pairExist[s] lists, per existential variable shared by the slot's
	// two positions, the constraints bounding it from p and from q.
	pairExist [3][][2][]int
	// form is each slot's representation in this outcome's prodSet.
	form [3]pairForm
}

// planOutcome builds the factorization plan, or nil when the outcome's
// clause shape is not thread-separable into unary and pairwise parts.
func planOutcome(pt *PerpetualTest, po *PerpetualOutcome) *outcomePlan {
	tl := pt.TL()
	plan := &outcomePlan{
		unaryEQ:    make([][]int, tl),
		unarySelf:  make([][]int, tl),
		unaryExist: make([][][]int, tl),
	}
	if po.Unsatisfiable {
		plan.empty = true
		return plan
	}
	pos := make(map[int]int, tl)
	for p, t := range pt.LoadThreads {
		pos[t] = p
	}
	// existBy[v][p] lists the constraints bounding exist var v from
	// position p.
	existBy := make(map[int][][]int, len(po.ExistVars))
	for _, v := range po.ExistVars {
		existBy[v] = make([][]int, tl)
	}

	for ci := range po.Constraints {
		con := &po.Constraints[ci]
		rp, ok := pos[con.Ref.Thread]
		if !ok {
			return nil // load from a non-frame thread: cannot happen, bail safely
		}
		byPos, isExist := existBy[con.Var]
		switch {
		case con.Rel == EQZero:
			plan.unaryEQ[rp] = append(plan.unaryEQ[rp], ci)
		case isExist:
			byPos[rp] = append(byPos[rp], ci)
		case con.Var == con.Ref.Thread:
			plan.unarySelf[rp] = append(plan.unarySelf[rp], ci)
		default:
			// Cross bound between two load threads.
			vp, ok := pos[con.Var]
			if !ok || tl > 3 {
				return nil
			}
			if rp < vp {
				s := pairSlot(rp, vp)
				plan.crossP[s] = append(plan.crossP[s], ci)
			} else {
				s := pairSlot(vp, rp)
				plan.crossQ[s] = append(plan.crossQ[s], ci)
			}
		}
	}

	for _, v := range po.ExistVars {
		var from []int
		for p, cons := range existBy[v] {
			if len(cons) > 0 {
				from = append(from, p)
			}
		}
		switch len(from) {
		case 0:
			// Exist vars always carry at least one constraint; defensive.
			return nil
		case 1:
			p := from[0]
			plan.unaryExist[p] = append(plan.unaryExist[p], existBy[v][p])
		case 2:
			if tl > 3 {
				return nil
			}
			p, q := from[0], from[1] // ascending: positions were scanned in order
			s := pairSlot(p, q)
			plan.pairExist[s] = append(plan.pairExist[s], [2][]int{existBy[v][p], existBy[v][q]})
		default:
			// A genuinely ternary clause: not pairwise-decomposable.
			return nil
		}
	}

	inner := innerSlot(tl)
	for s := 0; s < 3; s++ {
		hasP, hasQ := len(plan.crossP[s]) > 0, len(plan.crossQ[s]) > 0
		oneSided := s == inner && len(plan.pairExist[s]) == 0
		switch {
		case !hasP && !hasQ && len(plan.pairExist[s]) == 0:
			plan.form[s] = pairNone
		case oneSided && !hasQ:
			plan.form[s] = pairRows
		case oneSided && !hasP:
			plan.form[s] = pairCols
		default:
			plan.form[s] = pairMatrix
		}
	}
	return plan
}

// factorPlans builds (and caches) the per-outcome plans. ok is false
// when any outcome is outside the product form or the outcome set
// exceeds the inclusion–exclusion caps.
func (c *Counter) factorPlans() ([]*outcomePlan, bool) {
	if c.fplansBuilt {
		return c.fplans, c.fplansOK
	}
	c.fplansBuilt = true
	if len(c.outcomes) > maxFactorOutcomes {
		c.fplansOK = false
		return nil, false
	}
	plans := make([]*outcomePlan, len(c.outcomes))
	for i, po := range c.outcomes {
		p := planOutcome(c.pt, po)
		if p == nil {
			c.fplansOK = false
			return nil, false
		}
		plans[i] = p
	}
	c.fplans, c.fplansOK = plans, true
	return plans, true
}

// ----- per-run structures -----

// pairRel is one pair slot's relation in the form its pairForm names;
// lo/hi back the interval forms and m the matrix form.
type pairRel struct {
	form   pairForm
	lo, hi []int32
	m      bitMatrix
}

// prodSet is a product-form frame set: per-position bitsets joined by
// per-pair relations.
type prodSet struct {
	empty bool
	unary []bitset
	pair  [3]pairRel
}

// factorScratch holds every reusable buffer of the factorized pass; it
// lives on the Counter so steady-state counting does not allocate.
type factorScratch struct {
	n     int
	words int

	sets []prodSet // per outcome

	// bound[ci] is constraint ci's threshold per ref-thread index for the
	// outcome being built, clamped to the frame: an rf bound's largest
	// admitted target iteration in [-1, n-1], an fr bound's smallest in
	// [0, n] (-1 and n admit nothing).
	bound [][]int32

	// Interval scratch of a matrix build: the row and column intervals of
	// the slot's cross bounds, and a shared existential's per-side
	// intervals (index 0: position p, 1: position q).
	rowLo, rowHi, colLo, colHi []int32
	exLo, exHi                 [2][]int32

	// Sweep scratch: columns and rows bucket-sorted by value (see
	// bucketByValue) and the accumulator row.
	colOrd, colStart []int32
	rowOrd, rowStart []int32
	acc              bitset

	// DFS intersection stack for inclusion–exclusion, one prodSet per
	// depth (its length is the depth the memory guard allows), the
	// running state of the current walk, and the row and prefix-popcount
	// scratch of the counting loops.
	stack   []prodSet
	ieOuter int
	ieTotal int64
	ieTerms int
	c1, c2  bitset
	pre     []int32
}

func resizeBitset(b bitset, words int) bitset {
	if cap(b) < words {
		return make(bitset, words)
	}
	b = b[:words]
	for i := range b {
		b[i] = 0
	}
	return b
}

func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// sizeMatrix shapes m as an n×n matrix, reusing its backing array.
func (sc *factorScratch) sizeMatrix(m *bitMatrix) {
	size := sc.n * sc.words
	if cap(m.rows) < size {
		m.rows = make([]uint64, size)
	}
	m.words, m.rows = sc.words, m.rows[:size]
}

// buildStructures fills the per-outcome prodSets for this run's buffers.
// ok=false means the pair-matrix footprint tripped the memory guard.
func (c *Counter) buildStructures(bs *BufSet, plans []*outcomePlan) (*factorScratch, bool) {
	n := bs.N
	tl := c.pt.TL()
	words := bitsetWords(n)

	// Memory guard: the per-outcome matrices must fit the budget, and the
	// inclusion–exclusion stack may only grow as deep as the rest allows,
	// each level holding up to one matrix per slot any outcome uses.
	matBytes := int64(n) * int64(words) * 8
	var outcomeBytes int64
	var used [3]bool
	// Which scratch this run needs: interval forms count through prefix
	// tables, matrices and single-side existentials fold row intervals,
	// cross bounds from q and shared existentials sweep.
	intervals, rowIvs, sweeps, exists := false, false, false, false
	for _, plan := range plans {
		if plan.empty {
			continue
		}
		for _, ue := range plan.unaryExist {
			rowIvs = rowIvs || len(ue) > 0
		}
		for s := 0; s < 3; s++ {
			switch plan.form[s] {
			case pairNone:
				continue
			case pairMatrix:
				outcomeBytes += matBytes
				rowIvs = true
			default:
				intervals = true
			}
			used[s] = true
			sweeps = sweeps || len(plan.crossQ[s]) > 0 || len(plan.pairExist[s]) > 0
			exists = exists || len(plan.pairExist[s]) > 0
		}
	}
	if outcomeBytes > c.fbudget {
		return nil, false
	}
	depth := int64(max(len(plans)-1, 0))
	var levelBytes int64
	for _, u := range used {
		if u {
			levelBytes += matBytes
		}
	}
	if levelBytes > 0 {
		depth = min(depth, (c.fbudget-outcomeBytes)/levelBytes)
	}

	if c.fscratch == nil {
		c.fscratch = &factorScratch{}
	}
	sc := c.fscratch
	sc.n, sc.words = n, words
	if tl == 3 && used != [3]bool{} {
		sc.c1, sc.c2 = resizeBitset(sc.c1, words), resizeBitset(sc.c2, words)
	}
	if intervals {
		sc.pre = resizeInt32(sc.pre, words+1)
	}
	if rowIvs {
		sc.rowLo, sc.rowHi = resizeInt32(sc.rowLo, n), resizeInt32(sc.rowHi, n)
	}
	if sweeps {
		sc.acc = resizeBitset(sc.acc, words)
		sc.colLo, sc.colHi = resizeInt32(sc.colLo, n), resizeInt32(sc.colHi, n)
		sc.colOrd, sc.colStart = resizeInt32(sc.colOrd, n), resizeInt32(sc.colStart, n+4)
	}
	if exists {
		sc.rowOrd, sc.rowStart = resizeInt32(sc.rowOrd, n), resizeInt32(sc.rowStart, n+4)
		for k := range sc.exLo {
			sc.exLo[k], sc.exHi[k] = resizeInt32(sc.exLo[k], n), resizeInt32(sc.exHi[k], n)
		}
	}
	if int64(cap(sc.stack)) < depth {
		st := make([]prodSet, depth)
		copy(st, sc.stack)
		sc.stack = st
	}
	sc.stack = sc.stack[:depth]

	if cap(sc.sets) < len(plans) {
		sets := make([]prodSet, len(plans))
		copy(sets, sc.sets)
		sc.sets = sets
	}
	sc.sets = sc.sets[:len(plans)]

	for oi, plan := range plans {
		set := &sc.sets[oi]
		set.empty = plan.empty
		if plan.empty {
			continue
		}
		po := c.outcomes[oi]
		sc.fillBounds(c.pt, bs, po)

		if cap(set.unary) < tl {
			set.unary = make([]bitset, tl)
		}
		set.unary = set.unary[:tl]
		for p := 0; p < tl; p++ {
			set.unary[p] = resizeBitset(set.unary[p], words)
			sc.fillUnary(set.unary[p], c.pt, bs, po, plan, p)
		}
		for s := 0; s < 3; s++ {
			sc.buildPair(&set.pair[s], po, plan, s)
		}
	}
	return sc, true
}

// fillBounds computes every rf/fr constraint's clamped threshold array
// for outcome po into sc.bound.
func (sc *factorScratch) fillBounds(pt *PerpetualTest, bs *BufSet, po *PerpetualOutcome) {
	n := sc.n
	if cap(sc.bound) < len(po.Constraints) {
		b := make([][]int32, len(po.Constraints))
		copy(b, sc.bound)
		sc.bound = b
	}
	sc.bound = sc.bound[:len(po.Constraints)]
	for ci := range po.Constraints {
		con := &po.Constraints[ci]
		if con.Rel == EQZero {
			continue
		}
		b := resizeInt32(sc.bound[ci], n)
		sc.bound[ci] = b
		stride := pt.Reads[con.Ref.Thread]
		buf := bs.Bufs[con.Ref.Thread]
		for i := range b {
			x := buf[stride*i+con.Ref.Slot]
			if con.Rel == RF {
				ub, ok := con.rfBound(x)
				switch {
				case !ok:
					b[i] = -1
				case ub >= int64(n):
					b[i] = int32(n - 1)
				default:
					b[i] = int32(ub)
				}
			} else {
				lb, ok := con.frBound(x)
				if !ok || lb > int64(n) {
					lb = int64(n)
				}
				b[i] = int32(lb)
			}
		}
	}
}

// foldBounds writes into lo/hi the interval the constraints cons admit
// per ref-thread index: fr thresholds raise lo from 0, rf thresholds
// lower hi from n-1.
func (sc *factorScratch) foldBounds(po *PerpetualOutcome, cons []int, lo, hi []int32) {
	top := int32(sc.n - 1)
	for i := range lo {
		lo[i], hi[i] = 0, top
	}
	for _, ci := range cons {
		b := sc.bound[ci]
		if po.Constraints[ci].Rel == RF {
			for i, h := range b {
				hi[i] = min(hi[i], h)
			}
		} else {
			for i, l := range b {
				lo[i] = max(lo[i], l)
			}
		}
	}
}

// fillUnary sets ub to the indices of position p satisfying the
// outcome's unary clauses.
func (sc *factorScratch) fillUnary(ub bitset, pt *PerpetualTest, bs *BufSet, po *PerpetualOutcome, plan *outcomePlan, p int) {
	n := sc.n
	setRange(ub, 0, int32(n-1))
	t := pt.LoadThreads[p]
	stride := pt.Reads[t]
	buf := bs.Bufs[t]
	for _, ci := range plan.unaryEQ[p] {
		slot := po.Constraints[ci].Ref.Slot
		for i := 0; i < n; i++ {
			if buf[stride*i+slot] != 0 {
				ub.unset(i)
			}
		}
	}
	for _, ci := range plan.unarySelf[p] {
		rf := po.Constraints[ci].Rel == RF
		for i, b := range sc.bound[ci] {
			if rf && int32(i) > b || !rf && int32(i) < b {
				ub.unset(i)
			}
		}
	}
	lo, hi := sc.rowLo, sc.rowHi
	for _, cons := range plan.unaryExist[p] {
		sc.foldBounds(po, cons, lo, hi)
		for i := range lo {
			if lo[i] > hi[i] {
				ub.unset(i)
			}
		}
	}
}

// buildPair builds slot s of outcome po in the form its plan chose.
func (sc *factorScratch) buildPair(r *pairRel, po *PerpetualOutcome, plan *outcomePlan, s int) {
	r.form = plan.form[s]
	switch r.form {
	case pairNone:
		return
	case pairRows, pairCols:
		cons := plan.crossP[s]
		if r.form == pairCols {
			cons = plan.crossQ[s]
		}
		r.lo, r.hi = resizeInt32(r.lo, sc.n), resizeInt32(r.hi, sc.n)
		sc.foldBounds(po, cons, r.lo, r.hi)
		return
	}
	m := &r.m
	sc.sizeMatrix(m)
	sc.foldBounds(po, plan.crossP[s], sc.rowLo, sc.rowHi)
	for i := 0; i < sc.n; i++ {
		setRange(m.row(i), sc.rowLo[i], sc.rowHi[i])
	}
	if len(plan.crossQ[s]) > 0 {
		sc.foldBounds(po, plan.crossQ[s], sc.colLo, sc.colHi)
		sc.andCols(m, sc.colLo, sc.colHi)
	}
	n := int32(sc.n)
	lp, hp, lq, hq := sc.exLo[0], sc.exHi[0], sc.exLo[1], sc.exHi[1]
	for _, e := range plan.pairExist[s] {
		sc.foldBounds(po, e[0], lp, hp)
		sc.foldBounds(po, e[1], lq, hq)
		// Fold each side's own non-emptiness in as masks: a row whose
		// interval is empty gets a threshold no key reaches, a column
		// whose interval is empty a key no threshold admits.
		for i := range lp {
			if lp[i] > hp[i] {
				lp[i] = n
			}
		}
		for j := range lq {
			if lq[j] > hq[j] {
				hq[j] = -1
			}
		}
		sc.sweep(m, hq, lp, true)  // Lp(i) ≤ Hq(j)
		sc.sweep(m, lq, hp, false) // Lq(j) ≤ Hp(i)
	}
}

// andCols ANDs into m the column-interval relation "row i is admitted by
// column j iff lo[j] ≤ i ≤ hi[j]".
func (sc *factorScratch) andCols(m *bitMatrix, lo, hi []int32) {
	sc.sweep(m, hi, nil, true)
	sc.sweep(m, lo, nil, false)
}

// bucketByValue bucket-sorts the indices of vals, whose values lie in
// [-1, n], into ord: bucket b (value b-1) is ord[start[b]:start[b+1]].
// start needs n+4 entries. Counting into start[b+2] and prefix-summing
// leaves start[b+1] at bucket b's first slot; placing advances it to
// bucket b's end, which is where start[b+1] must finally point.
//
//perple:hotpath cover=core-factor
func bucketByValue(ord, start, vals []int32) {
	for b := range start {
		start[b] = 0
	}
	for _, v := range vals {
		start[v+3]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	for i, v := range vals {
		ord[start[v+2]] = int32(i)
		start[v+2]++
	}
}

// sweep ANDs into every row i of m the column set {j : key[j] ≥ thr[i]}
// (ge) or {j : key[j] ≤ thr[i]} (!ge); a nil thr means thr[i] = i. Keys
// and thresholds lie in [-1, n]. Thresholds are visited from the most
// restrictive value to the least, so the admitted columns only ever
// grow: each column enters the accumulator once, and each row is ANDed
// with the accumulator once — O(n·words) instead of n² comparisons.
//
//perple:hotpath cover=core-factor
func (sc *factorScratch) sweep(m *bitMatrix, key, thr []int32, ge bool) {
	n := int32(sc.n)
	bucketByValue(sc.colOrd, sc.colStart, key)
	if thr != nil {
		bucketByValue(sc.rowOrd, sc.rowStart, thr)
	}
	acc := sc.acc
	for w := range acc {
		acc[w] = 0
	}
	v, end, step := n, int32(-2), int32(-1)
	if !ge {
		v, end, step = -1, n+1, 1
	}
	for ; v != end; v += step {
		b := v + 1
		for _, j := range sc.colOrd[sc.colStart[b]:sc.colStart[b+1]] {
			acc[j>>6] |= 1 << uint(j&63)
		}
		if thr == nil {
			if v >= 0 && v < n {
				andInto(m.row(int(v)), m.row(int(v)), acc)
			}
			continue
		}
		for _, i := range sc.rowOrd[sc.rowStart[b]:sc.rowStart[b+1]] {
			andInto(m.row(int(i)), m.row(int(i)), acc)
		}
	}
}

// ----- counting product-form sets -----

// countProdSet counts the frames in a product-form set exactly.
func (sc *factorScratch) countProdSet(s *prodSet) int64 {
	if s.empty {
		return 0
	}
	tl := len(s.unary)
	if s.pair[0].form == pairNone && s.pair[1].form == pairNone && s.pair[2].form == pairNone {
		total := int64(1)
		for _, ub := range s.unary {
			total = mulSat(total, ub.popcount())
			if total == 0 {
				return 0
			}
		}
		return total
	}
	switch tl {
	case 2:
		return sc.countPair(&s.pair[0], s.unary[0], s.unary[1])
	case 3:
		r01, r02, r12 := &s.pair[0], &s.pair[1], &s.pair[2]
		u0, u1, u2 := s.unary[0], s.unary[1], s.unary[2]
		var total int64
		for w, word := range u0 {
			for word != 0 {
				i0 := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				c1 := u1
				if r01.form != pairNone {
					andInto(sc.c1, r01.m.row(i0), u1)
					c1 = sc.c1
				}
				c2 := u2
				if r02.form != pairNone {
					andInto(sc.c2, r02.m.row(i0), u2)
					c2 = sc.c2
				}
				total += sc.countPair(r12, c1, c2)
			}
		}
		return total
	default:
		// Unreachable: pairs imply TL ≤ 3 (enforced by planOutcome).
		return 0
	}
}

// countPair counts the (i, j) pairs with i ∈ a, j ∈ b and r admitting
// them.
func (sc *factorScratch) countPair(r *pairRel, a, b bitset) int64 {
	switch r.form {
	case pairNone:
		return mulSat(a.popcount(), b.popcount())
	case pairRows:
		return sc.ivCount(a, b, r.lo, r.hi)
	case pairCols:
		return sc.ivCount(b, a, r.lo, r.hi)
	}
	var total int64
	for w, word := range a {
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			total += popcountAnd(r.m.row(i), b)
		}
	}
	return total
}

// ivCount sums |inner ∩ [lo[x], hi[x]]| over the indices x of outer,
// each term in O(1) from a prefix-popcount table of inner built once.
//
//perple:hotpath cover=core-factor
func (sc *factorScratch) ivCount(outer, inner bitset, lo, hi []int32) int64 {
	pre := sc.pre
	var run int32
	for w, word := range inner {
		pre[w] = run
		run += int32(bits.OnesCount64(word))
	}
	pre[len(inner)] = run
	var total int64
	for w, word := range outer {
		for word != 0 {
			x := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if l, h := lo[x], hi[x]; l <= h {
				total += int64(bitsBelow(pre, inner, h+1) - bitsBelow(pre, inner, l))
			}
		}
	}
	return total
}

// bitsBelow counts the members of b below index x ∈ [0, len(b)·64],
// given pre[w] = members in words [0, w).
//
//perple:hotpath cover=core-factor
func bitsBelow(pre []int32, b bitset, x int32) int32 {
	w := x >> 6
	c := pre[w]
	if r := x & 63; r != 0 {
		c += int32(bits.OnesCount64(b[w] & (1<<uint(r) - 1)))
	}
	return c
}

// intersectInto writes a ∩ b into dst, reusing dst's backing arrays.
func (sc *factorScratch) intersectInto(dst, a, b *prodSet) {
	dst.empty = a.empty || b.empty
	if dst.empty {
		return
	}
	tl := len(a.unary)
	if cap(dst.unary) < tl {
		dst.unary = make([]bitset, tl)
	}
	dst.unary = dst.unary[:tl]
	for p := 0; p < tl; p++ {
		dst.unary[p] = resizeBitset(dst.unary[p], sc.words)
		andInto(dst.unary[p], a.unary[p], b.unary[p])
	}
	for s := 0; s < 3; s++ {
		sc.intersectPair(&dst.pair[s], &a.pair[s], &b.pair[s])
	}
}

// intersectPair writes a ∧ b into d. Same-orientation intervals
// intersect as intervals; any other mix is materialized as a matrix.
func (sc *factorScratch) intersectPair(d, a, b *pairRel) {
	if a.form == pairNone || b.form == pairMatrix {
		a, b = b, a
	}
	switch {
	case a.form == pairNone:
		d.form = pairNone
	case b.form == pairNone && a.form == pairMatrix:
		d.form = pairMatrix
		sc.sizeMatrix(&d.m)
		copy(d.m.rows, a.m.rows)
	case b.form == pairNone:
		d.form = a.form
		d.lo, d.hi = resizeInt32(d.lo, sc.n), resizeInt32(d.hi, sc.n)
		copy(d.lo, a.lo)
		copy(d.hi, a.hi)
	case a.form == b.form && a.form != pairMatrix:
		d.form = a.form
		d.lo, d.hi = resizeInt32(d.lo, sc.n), resizeInt32(d.hi, sc.n)
		for i := range d.lo {
			d.lo[i] = max(a.lo[i], b.lo[i])
			d.hi[i] = min(a.hi[i], b.hi[i])
		}
	default:
		d.form = pairMatrix
		m := &d.m
		sc.sizeMatrix(m)
		top := int32(sc.n - 1)
		for i := 0; i < sc.n; i++ {
			switch a.form {
			case pairMatrix:
				copy(m.row(i), a.m.row(i))
			case pairRows:
				setRange(m.row(i), a.lo[i], a.hi[i])
			default:
				setRange(m.row(i), 0, top)
			}
		}
		if a.form == pairCols {
			sc.andCols(m, a.lo, a.hi)
		}
		switch b.form {
		case pairMatrix:
			for w := range m.rows {
				m.rows[w] &= b.m.rows[w]
			}
		case pairRows:
			for i := 0; i < sc.n; i++ {
				andRange(m.row(i), b.lo[i], b.hi[i])
			}
		default:
			sc.andCols(m, b.lo, b.hi)
		}
	}
}

// firstMatchCount computes the number of frames whose FIRST matching
// outcome is oi, by inclusion–exclusion over the earlier outcomes'
// sets. Zero-count subtrees are pruned (valid: intersections only
// shrink), so disjoint outcome chains cost O(oi) terms. ok=false means
// the overlap structure blew the term budget or the memory guard's
// depth, and the caller must fall back to the odometer.
func (sc *factorScratch) firstMatchCount(oi int) (int64, bool) {
	sc.ieOuter, sc.ieTotal, sc.ieTerms = oi, 0, 0
	if !sc.ieVisit(0, 0, &sc.sets[oi], 1) {
		return 0, false
	}
	return sc.ieTotal, true
}

// ieVisit adds the signed count of cur, then recurses into its
// intersections with the outcomes nextJ..ieOuter-1 one level deeper.
func (sc *factorScratch) ieVisit(depth, nextJ int, cur *prodSet, sign int64) bool {
	sc.ieTerms++
	if sc.ieTerms > maxFactorIETerms {
		return false
	}
	cnt := sc.countProdSet(cur)
	if cnt == 0 {
		return true
	}
	sc.ieTotal += sign * cnt
	for j := nextJ; j < sc.ieOuter; j++ {
		if depth >= len(sc.stack) {
			return false
		}
		child := &sc.stack[depth]
		sc.intersectInto(child, cur, &sc.sets[j])
		if !sc.ieVisit(depth+1, j+1, child, -sign) {
			return false
		}
	}
	return true
}

// mulSat multiplies non-negative counts, saturating at MaxInt64 (only
// reachable in regimes the odometer could never walk).
func mulSat(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// powSat computes n^tl with saturation, the logical frame count.
func powSat(n int64, tl int) int64 {
	total := int64(1)
	for i := 0; i < tl; i++ {
		total = mulSat(total, n)
	}
	return total
}

// ----- entry points -----

// CountFactorized computes exactly CountExhaustive's result via the
// factorized pass. ok=false reports a clause shape, outcome-set size or
// matrix footprint outside the factorizable fragment — the caller must
// fall back to the odometer. Frames reports the logical N^TL frame
// count the odometer would have walked.
func (c *Counter) CountFactorized(bs *BufSet) (res *CountResult, ok bool, err error) {
	if err := bs.Validate(c.pt); err != nil {
		return nil, false, err
	}
	plans, ok := c.factorPlans()
	if !ok {
		return nil, false, nil
	}
	res = &CountResult{Counts: make([]int64, len(c.outcomes))}
	n := bs.N
	tl := c.pt.TL()
	if n == 0 || tl == 0 {
		return res, true, nil
	}
	if !c.factorCounts(bs, plans, res.Counts) {
		return nil, false, nil
	}
	res.Frames = powSat(int64(n), tl)
	return res, true, nil
}

// factorCounts fills counts with the first-match tallies of a validated,
// non-empty run; false means a fallback guard tripped.
func (c *Counter) factorCounts(bs *BufSet, plans []*outcomePlan, counts []int64) bool {
	sc, ok := c.buildStructures(bs, plans)
	if !ok {
		return false
	}
	for oi := range counts {
		cnt, ok := sc.firstMatchCount(oi)
		if !ok {
			return false
		}
		counts[oi] = cnt
	}
	return true
}

// CountExhaustiveAuto selects the fastest exact exhaustive counter: the
// factorized pass when the outcome set is product-form, otherwise the
// odometer (CountExhaustive). The tallies are identical either way (the
// differential tests prove it); only the work to produce them differs.
func (c *Counter) CountExhaustiveAuto(ctx context.Context, bs *BufSet) (*CountResult, error) {
	if res, ok, err := c.CountFactorized(bs); err != nil {
		return nil, err
	} else if ok {
		return res, nil
	}
	return c.CountExhaustive(ctx, bs)
}
