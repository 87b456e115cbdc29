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
// Lp(i) ≤ Hq(j) and Lq(j) ≤ Hp(i). A pair relation therefore keeps its
// row intervals plus a list of column-threshold predicates "key[j] ≥
// thr[i]" or "key[j] ≤ thr[i]" (a column interval gives two with
// thr[i] = i), and no relation is ever stored as a matrix. The counting
// loops visit rows in ascending order and stream each row into one
// scratch row: every predicate has a cursor over its columns sorted by
// key, holding the admitted columns as a bitset, and moving to the next
// row's threshold toggles only the columns in between (a snapshot every
// few ranks bounds any jump), so a row costs O(words) per predicate and
// scratch is O(N) per predicate. The innermost pair of the counting
// loop ((0,1) at TL=2, (1,2) at TL=3) skips the stream when its clause
// is one-sided: each row (or column) is then an index interval, counted
// in O(1) from a prefix-popcount table of the inner bitset.
//
// First-match-wins multi-outcome semantics are recovered by
// inclusion–exclusion over the earlier outcomes' product-form sets:
// counts[i] = Σ_{S ⊆ {0..i-1}} (−1)^|S| · |A_i ∩ ∩_{j∈S} A_j|, where
// every intersection is again product-form (bitsets AND per thread; per
// pair, row intervals intersect and predicate lists concatenate) and
// subtrees whose running intersection is empty are pruned — disjoint
// outcomes, the common case, cost one term.
//
// Shapes outside the product form fall back to the odometer: an
// existential thread observed from three or more load threads (a
// genuinely ternary clause), cross constraints with TL ≥ 4 (the counting
// pass is specialized to TL ≤ 3), and outcome sets too large for
// inclusion–exclusion. CountExhaustive remains the reference
// implementation; the differential tests in factor_test.go hold the two
// bit-for-bit equal.

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

// ----- bitsets -----

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

// ----- per-outcome factorization plan (independent of N) -----

// pairSlot maps an ordered load-thread position pair to its relation slot:
// (0,1)→0, (0,2)→1, (1,2)→2. Valid for TL ≤ 3.
func pairSlot(p, q int) int {
	if p == 0 {
		return q - 1 // (0,1)→0, (0,2)→1
	}
	return 2 // (1,2)
}

// innerSlot is the pair the counting pass visits innermost: (0,1) at
// TL=2 and (1,2) at TL=3. Only it may take the column-interval form.
func innerSlot(tl int) int {
	if tl == 3 {
		return 2
	}
	return 0
}

// pairForm tells how a pair relation over positions (p, q) is stored.
type pairForm uint8

const (
	pairNone  pairForm = iota // unconstrained
	pairRows                  // row i admits columns [lo[i], hi[i]]
	pairCols                  // column j admits rows [lo[j], hi[j]]
	pairPreds                 // row intervals cut by column-threshold predicates
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
		hasP, hasQ, hasE := len(plan.crossP[s]) > 0, len(plan.crossQ[s]) > 0, len(plan.pairExist[s]) > 0
		switch {
		case !hasP && !hasQ && !hasE:
			plan.form[s] = pairNone
		case !hasQ && !hasE:
			plan.form[s] = pairRows
		case s == inner && !hasP && !hasE:
			plan.form[s] = pairCols
		default:
			plan.form[s] = pairPreds
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

// colPred is a column-threshold predicate of a pair relation: row i
// admits column j iff key[j] ≥ thr[i] (ge) or key[j] ≤ thr[i] (!ge),
// with thr[i] = i when thr is empty. Keys and thresholds lie in
// [-1, n].
//
// Its cursor streams one row's admitted columns at a time. ord lists
// the columns by ascending key (start bounds each key's bucket, see
// bucketByValue), so a row admits a prefix ord[:pos] (!ge) or a suffix
// ord[pos:] (ge), and adm holds that set at the cursor's pos. Moving pos
// toggles the columns in between; snap holds adm at every stride-th pos
// (stride = words), so a jump restores the nearest snapshot and toggles
// at most stride columns: O(words) for any move, O(1) amortized for
// identity thresholds over ascending rows.
type colPred struct {
	key, thr []int32
	ge       bool

	ready      bool // ord, start, snap and adm match key
	ord, start []int32
	snap, adm  bitset
	pos        int32
}

// prepare builds p's cursor over n columns from its keys.
func (p *colPred) prepare(n int) {
	words := bitsetWords(n)
	p.ord, p.start = resizeInt32(p.ord, n), resizeInt32(p.start, n+4)
	bucketByValue(p.ord, p.start, p.key)
	p.adm = resizeBitset(p.adm, words)
	if p.ge {
		setRange(p.adm, 0, int32(n-1)) // pos 0 admits all of ord
	}
	last := n / words
	p.snap = resizeBitset(p.snap, (last+1)*words)
	for k := 0; k <= last; k++ {
		if k > 0 {
			flip(p.adm, p.ord[(k-1)*words:k*words])
		}
		copy(p.snap[k*words:], p.adm)
	}
	p.pos, p.ready = int32(last*words), true
}

// seek moves p's cursor to row i's threshold.
//
//perple:hotpath cover=core-factor
func (p *colPred) seek(i int) {
	t := int32(i)
	if len(p.thr) > 0 {
		t = p.thr[i]
	}
	b := t + 1 // key t is bucket t+1: ord[:start[t+1]] holds the keys below t
	if !p.ge {
		b++
	}
	to := p.start[b]
	words := int32(len(p.adm))
	if d := to - p.pos; d > words || d < -words {
		k := min((to+words/2)/words, int32(len(p.snap))/words-1)
		copy(p.adm, p.snap[k*words:])
		p.pos = k * words
	}
	if to < p.pos {
		flip(p.adm, p.ord[to:p.pos])
	} else {
		flip(p.adm, p.ord[p.pos:to])
	}
	p.pos = to
}

// flip toggles the columns cols in b.
//
//perple:hotpath cover=core-factor
func flip(b bitset, cols []int32) {
	for _, j := range cols {
		b[j>>6] ^= 1 << uint(j&63)
	}
}

// pairRel is one pair slot's relation in the form its pairForm names.
// lo/hi are the row intervals of the rows and preds forms. preds are
// the preds form's predicates, or the cols form's column intervals as
// the identity predicates preds[0] (hi[j] ≥ i) and preds[1] (lo[j] ≤
// i). own holds the predicates this relation built; preds may also
// point into earlier relations' own, which outlive it.
type pairRel struct {
	form   pairForm
	lo, hi []int32
	preds  []*colPred
	own    []colPred
}

// hasRows reports whether r confines rows to lo/hi.
func (r *pairRel) hasRows() bool { return r.form == pairRows || r.form == pairPreds }

// setOwn makes r.own k unready predicates, reusing their arrays, and
// points r.preds at them.
func (r *pairRel) setOwn(k int) {
	if cap(r.own) < k {
		own := make([]colPred, k)
		copy(own, r.own)
		r.own = own
	}
	r.own = r.own[:k]
	r.preds = r.preds[:0]
	for i := range r.own {
		r.own[i].ready = false
		r.preds = append(r.preds, &r.own[i])
	}
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
	// rowLo/rowHi fold a single-side existential's interval.
	rowLo, rowHi []int32

	// DFS intersection stack for inclusion–exclusion, one prodSet per
	// depth, the running state of the current walk, and the row and
	// prefix-popcount scratch of the counting loops.
	stack       []prodSet
	ieOuter     int
	ieTotal     int64
	ieTerms     int
	c1, c2, row bitset
	pre         []int32
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

// buildStructures fills the per-outcome prodSets for this run's buffers.
func (c *Counter) buildStructures(bs *BufSet, plans []*outcomePlan) *factorScratch {
	n := bs.N
	tl := c.pt.TL()
	words := bitsetWords(n)
	if c.fscratch == nil {
		c.fscratch = &factorScratch{}
	}
	sc := c.fscratch
	sc.n, sc.words = n, words
	sc.c1, sc.c2, sc.row = resizeBitset(sc.c1, words), resizeBitset(sc.c2, words), resizeBitset(sc.row, words)
	sc.pre = resizeInt32(sc.pre, words+1)
	// An intersection chain is at most one level per earlier outcome.
	depth := max(len(plans)-1, 0)
	if cap(sc.stack) < depth {
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
	return sc
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
				ub, ok := rfBound(x, con.K, con.Var, con.StoreIdx, con.SeqThread, con.SeqIdx)
				switch {
				case !ok:
					b[i] = -1
				case ub >= int64(n):
					b[i] = int32(n - 1)
				default:
					b[i] = int32(ub)
				}
			} else {
				lb, ok := frBound(x, con.K, con.A, con.Var, con.StoreIdx, con.SeqThread, con.SeqIdx)
				if !ok || lb > int64(n) {
					lb = int64(n)
				}
				b[i] = int32(lb)
			}
		}
	}
}

// foldBound writes into b, per ref-thread index, the tightest bound the
// constraints cons of relation rel impose: the largest fr threshold
// (from 0) or the smallest rf threshold (from n-1). It reports whether
// any of cons has relation rel.
func (sc *factorScratch) foldBound(po *PerpetualOutcome, cons []int, rel Rel, b []int32) bool {
	v := int32(0)
	if rel == RF {
		v = int32(sc.n - 1)
	}
	for i := range b {
		b[i] = v
	}
	found := false
	for _, ci := range cons {
		if po.Constraints[ci].Rel != rel {
			continue
		}
		found = true
		for i, t := range sc.bound[ci] {
			if rel == RF {
				b[i] = min(b[i], t)
			} else {
				b[i] = max(b[i], t)
			}
		}
	}
	return found
}

// foldBounds writes into lo/hi the interval the constraints cons admit
// per ref-thread index.
func (sc *factorScratch) foldBounds(po *PerpetualOutcome, cons []int, lo, hi []int32) {
	sc.foldBound(po, cons, FR, lo)
	sc.foldBound(po, cons, RF, hi)
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
	for _, cons := range plan.unaryExist[p] {
		sc.rowLo, sc.rowHi = resizeInt32(sc.rowLo, n), resizeInt32(sc.rowHi, n)
		lo, hi := sc.rowLo, sc.rowHi
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
	n := sc.n
	r.form = plan.form[s]
	r.preds = r.preds[:0]
	switch r.form {
	case pairNone:
		return
	case pairCols:
		r.setOwn(2)
		hi, lo := &r.own[0], &r.own[1]
		hi.key, lo.key = resizeInt32(hi.key, n), resizeInt32(lo.key, n)
		hi.thr, lo.thr, hi.ge, lo.ge = hi.thr[:0], lo.thr[:0], true, false
		sc.foldBounds(po, plan.crossQ[s], lo.key, hi.key)
		return
	}
	r.lo, r.hi = resizeInt32(r.lo, n), resizeInt32(r.hi, n)
	sc.foldBounds(po, plan.crossP[s], r.lo, r.hi)
	if r.form == pairRows {
		return
	}
	// A shared existential gives Hq(j) ≥ Lp(i) and Lq(j) ≤ Hp(i). A
	// crossQ bound confines column j to rows [lo[j], hi[j]]: hi[j] ≥ i
	// if it has an rf part, lo[j] ≤ i if it has an fr part.
	k := 2 * len(plan.pairExist[s])
	r.setOwn(k + 2)
	for x, e := range plan.pairExist[s] {
		a, b := &r.own[2*x], &r.own[2*x+1] // Hq ≥ Lp, Lq ≤ Hp
		a.key, a.thr = resizeInt32(a.key, n), resizeInt32(a.thr, n)
		b.key, b.thr = resizeInt32(b.key, n), resizeInt32(b.thr, n)
		a.ge, b.ge = true, false
		lp, hp, lq, hq := a.thr, b.thr, b.key, a.key
		sc.foldBounds(po, e[0], lp, hp)
		sc.foldBounds(po, e[1], lq, hq)
		// Fold each side's own non-emptiness in as masks: a row whose
		// interval is empty gets a threshold no key reaches, a column
		// whose interval is empty a key no threshold admits.
		for i := range lp {
			if lp[i] > hp[i] {
				lp[i] = int32(n)
			}
		}
		for j := range lq {
			if lq[j] > hq[j] {
				hq[j] = -1
			}
		}
	}
	for _, rel := range [2]Rel{RF, FR} {
		if len(plan.crossQ[s]) == 0 {
			break
		}
		p := &r.own[k]
		p.key, p.thr, p.ge = resizeInt32(p.key, n), p.thr[:0], rel == RF
		if sc.foldBound(po, plan.crossQ[s], rel, p.key) {
			k++
		}
	}
	r.preds = r.preds[:k]
	for _, p := range r.preds {
		p.prepare(n)
	}
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
					if sc.rowInto(sc.c1, r01, i0, u1) == 0 {
						continue
					}
					c1 = sc.c1
				}
				c2 := u2
				if r02.form != pairNone {
					if sc.rowInto(sc.c2, r02, i0, u2) == 0 {
						continue
					}
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
		return sc.ivCount(b, a, r.preds[1].key, r.preds[0].key)
	}
	var total int64
	for w, word := range a {
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			total += sc.rowInto(sc.row, r, i, b)
		}
	}
	return total
}

// rowInto writes into dst the members of u that row i of r (rows or
// preds form) admits and returns their count. Only the words of the
// row's interval are computed, after r's cursors move to row i; dst is
// zero elsewhere.
//
//perple:hotpath cover=core-factor
func (sc *factorScratch) rowInto(dst bitset, r *pairRel, i int, u bitset) int64 {
	l, h := r.lo[i], r.hi[i]
	if l > h {
		clear(dst)
		return 0
	}
	for _, p := range r.preds {
		p.seek(i)
	}
	lw, hw := int(l>>6), int(h>>6)
	clear(dst[:lw])
	clear(dst[hw+1:])
	row := dst[lw : hw+1]
	copy(row, u[lw:hw+1])
	row[0] &= ^uint64(0) << uint(l&63)
	row[len(row)-1] &= ^uint64(0) >> uint(63-h&63)
	for _, p := range r.preds {
		for w, a := range p.adm[lw : hw+1] {
			row[w] &= a
		}
	}
	var c int64
	for _, x := range row {
		c += int64(bits.OnesCount64(x))
	}
	return c
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

// intersectPair writes a ∧ b into d. Column intervals intersect as
// column intervals; every other mix keeps the intersection of the row
// intervals and the concatenation of the predicate lists, whose
// predicates stay owned by a and b.
func (sc *factorScratch) intersectPair(d, a, b *pairRel) {
	if a.form == pairNone {
		a, b = b, a
	}
	d.preds = d.preds[:0]
	switch {
	case a.form == pairNone:
		d.form = pairNone
		return
	case a.form == pairCols && b.form == pairNone:
		d.form = pairCols
		d.preds = append(d.preds, a.preds...)
		return
	case a.form == pairCols && b.form == pairCols:
		d.form = pairCols
		d.setOwn(2)
		hi, lo := &d.own[0], &d.own[1]
		hi.key, lo.key = resizeInt32(hi.key, sc.n), resizeInt32(lo.key, sc.n)
		hi.thr, lo.thr, hi.ge, lo.ge = hi.thr[:0], lo.thr[:0], true, false
		ah, al, bh, bl := a.preds[0].key, a.preds[1].key, b.preds[0].key, b.preds[1].key
		for j := range hi.key {
			hi.key[j], lo.key[j] = min(ah[j], bh[j]), max(al[j], bl[j])
		}
		return
	}
	d.form = pairRows
	d.lo, d.hi = resizeInt32(d.lo, sc.n), resizeInt32(d.hi, sc.n)
	ar, br, top := a.hasRows(), b.hasRows(), int32(sc.n-1)
	for i := range d.lo {
		l, h := int32(0), top
		if ar {
			l, h = a.lo[i], a.hi[i]
		}
		if br {
			l, h = max(l, b.lo[i]), min(h, b.hi[i])
		}
		d.lo[i], d.hi[i] = l, h
	}
	d.preds = append(append(d.preds, a.preds...), b.preds...)
	if len(d.preds) > 0 {
		d.form = pairPreds
	}
	for _, p := range d.preds {
		if !p.ready {
			p.prepare(sc.n)
		}
	}
}

// firstMatchCount computes the number of frames whose FIRST matching
// outcome is oi, by inclusion–exclusion over the earlier outcomes'
// sets. Zero-count subtrees are pruned (valid: intersections only
// shrink), so disjoint outcome chains cost O(oi) terms. ok=false means
// the overlap structure blew the term budget, and the caller must fall
// back to the odometer.
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
// outcome overlap outside the factorizable fragment — the caller must
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
	sc := c.buildStructures(bs, plans)
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
