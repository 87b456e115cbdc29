package trace

import (
	"fmt"

	"perple/internal/memmodel"
)

// relKind labels an edge of the happens-before graph for cycle reports.
type relKind uint8

const (
	relPO relKind = iota // static edge of the axiom's po scope
	relRf
	relCo
	relFr
)

// label names the relation for a cycle report under the failed axiom.
func (r relKind) label(ax memmodel.Axiom) string {
	switch r {
	case relPO:
		return ax.PO.String()
	case relRf:
		return "rf"
	case relCo:
		return "co"
	default:
		return "fr"
	}
}

// edge is one labelled happens-before edge between dense event indices.
type edge struct {
	from, to int32
	rel      relKind
}

// checkedAxiom is one axiom of the checker's model with its static po
// edges, compiled once.
type checkedAxiom struct {
	memmodel.Axiom
	po []edge
}

// Checker validates witnesses of one test against a memory model in
// near-linear time per witness: each axiom's happens-before union has
// O(events) edges (its compiled po edges plus one rf, one co-adjacency
// and one fr edge per dynamic event), and a Kahn topological pass over
// reusable scratch decides acyclicity in O(events). A Checker is not
// safe for concurrent use; share the Layout and give each goroutine its
// own Checker.
//
// fr is derived: each load precedes the immediate co-successor of the
// store it read (the co chain supplies the rest transitively), and a
// load of init precedes the location's co-first store.
type Checker struct {
	l      *Layout
	model  memmodel.Model
	axioms []checkedAxiom

	// Per-witness scratch, reused across Check calls.
	coNext  []int32 // dense store -> co-successor in its location, -1 at the tail
	coFirst []int32 // location -> co-first store, -1 when storeless
	coSeen  []bool  // dense store -> appeared in this slot's Co
	edges   []edge
	eoff    []int32 // CSR offsets into csr, len NEvents+1
	csr     []edge  // edges sorted by from
	indeg   []int32
	queue   []int32
	prevEdg []int32 // BFS: index into csr of the edge that reached the node
	dist    []int32
}

// NewCheckerLayout builds a checker over an existing layout, compiling
// each of the model's axioms' po scope into static edges.
func NewCheckerLayout(l *Layout, model memmodel.Model) (*Checker, error) {
	axioms := model.Axioms()
	if axioms == nil {
		return nil, fmt.Errorf("trace: unsupported model %v", model)
	}
	n := l.NEvents()
	c := &Checker{
		l:       l,
		model:   model,
		coNext:  make([]int32, l.NStores()),
		coFirst: make([]int32, len(l.locs)),
		coSeen:  make([]bool, l.NStores()),
		eoff:    make([]int32, n+1),
		indeg:   make([]int32, n),
		queue:   make([]int32, 0, n),
		prevEdg: make([]int32, n),
		dist:    make([]int32, n),
	}
	for _, ax := range axioms {
		c.axioms = append(c.axioms, checkedAxiom{Axiom: ax, po: poEdges(l, model, ax.PO)})
	}
	return c, nil
}

// poEdges compiles po scope s of model m into its per-thread transitive
// reduction: an ordered pair i→j is dropped when an earlier kept
// successor of i is ordered before j, since the path through it implies
// the pair. memmodel's scopes are transitively closed, and fences are
// events here (a fenced pair runs through its fence), so the reduction
// keeps O(events) edges.
func poEdges(l *Layout, m memmodel.Model, s memmodel.POScope) []edge {
	var out []edge
	base := int32(0)
	for _, th := range l.test.Threads {
		n := len(th.Instrs)
		ordered := make([]bool, n*n) // ordered[i*n+j]: the scope orders i before j
		m.Ordered(s, th.Instrs, func(i, j int) { ordered[i*n+j] = true })
		covered := make([]bool, n)
		for i := 0; i < n; i++ {
			clear(covered)
			for j := i + 1; j < n; j++ {
				if ordered[i*n+j] && !covered[j] {
					out = append(out, edge{base + int32(i), base + int32(j), relPO})
					for k := j + 1; k < n; k++ {
						covered[k] = covered[k] || ordered[j*n+k]
					}
				}
			}
		}
		base += int32(n)
	}
	return out
}

// Layout returns the compiled test layout.
func (c *Checker) Layout() *Layout { return c.l }

// Model returns the model the checker validates against.
func (c *Checker) Model() memmodel.Model { return c.model }

// Check validates slot s of the witness set. It returns a non-nil
// Violation when the witness is inconsistent with the model, and an
// error when the witness is malformed (rf naming a store of another
// location, co not a permutation of the location's stores) — the
// distinction matters because a malformed witness indicts the recorder,
// not the machine.
func (c *Checker) Check(w *WitnessSet, s int) (*Violation, error) {
	if w.Layout() != c.l {
		return nil, fmt.Errorf("trace: witness layout mismatch (test %s)", c.l.test.Name)
	}
	if s < 0 || s >= w.Slots {
		return nil, fmt.Errorf("trace: slot %d out of range [0,%d)", s, w.Slots)
	}
	if err := c.prepare(w, s); err != nil {
		return nil, fmt.Errorf("trace: %s slot %d: %w", c.l.test.Name, s, err)
	}
	for i := range c.axioms {
		if v := c.run(w, s, &c.axioms[i]); v != nil {
			return v, nil
		}
	}
	return nil, nil
}

// prepare validates the slot's witness and builds the co successor
// tables: coNext chains each location's stores in drain order, coFirst
// anchors the init pseudo-store's position.
func (c *Checker) prepare(w *WitnessSet, s int) error {
	l := c.l
	for i := range c.coFirst {
		c.coFirst[i] = -1
	}
	for i := range c.coNext {
		c.coNext[i] = -1
		c.coSeen[i] = false
	}
	// prev[loc] tracks the location's latest store while walking the
	// global drain order; coFirst doubles as the "no store yet" marker.
	co := w.CoAt(s)
	prev := c.dist[:len(l.locs)] // borrow scratch; rewritten by every pass
	for i := range prev {
		prev[i] = -1
	}
	for _, st := range co {
		if st < 0 || int(st) >= l.NStores() {
			return fmt.Errorf("malformed witness: co entry %d out of store range", st)
		}
		if c.coSeen[st] {
			return fmt.Errorf("malformed witness: store %s appears twice in co", l.StoreRef(st))
		}
		c.coSeen[st] = true
		loc := l.storeLoc[st]
		if prev[loc] < 0 {
			c.coFirst[loc] = st
		} else {
			c.coNext[prev[loc]] = st
		}
		prev[loc] = st
	}
	for st := range c.coSeen {
		if !c.coSeen[st] {
			return fmt.Errorf("malformed witness: store %s missing from co", l.StoreRef(int32(st)))
		}
	}
	rf := w.RFAt(s)
	for k, src := range rf {
		if src < -1 || int(src) >= l.NStores() {
			return fmt.Errorf("malformed witness: rf source %d of load %s out of range", src, l.LoadRef(int32(k)))
		}
		if src >= 0 && l.storeLoc[src] != l.loadLoc[k] {
			return fmt.Errorf("malformed witness: load %s of [%s] reads store %s of [%s]",
				l.LoadRef(int32(k)), l.locs[l.loadLoc[k]], l.StoreRef(src), l.locs[l.storeLoc[src]])
		}
	}
	return nil
}

// run builds one axiom's edge set and topologically sorts it, returning
// a Violation with a minimal cycle when the graph is cyclic.
func (c *Checker) run(w *WitnessSet, s int, ax *checkedAxiom) *Violation {
	l := c.l
	c.edges = append(c.edges[:0], ax.po...)

	// Dynamic edges: rf (external only under an rfe axiom — a same-thread
	// rf is forwarding and does not prove the store reached memory), the
	// co chains, and the derived fr edge of every load.
	rfe := ax.RF == memmodel.RFE
	rf := w.RFAt(s)
	for k, src := range rf {
		if src >= 0 {
			le, se := l.loadEv[k], l.storeEv[src]
			if !rfe || l.events[se].Thread != l.events[le].Thread {
				c.edges = append(c.edges, edge{se, le, relRf})
			}
		}
		next := int32(-1)
		if src >= 0 {
			next = c.coNext[src]
		} else {
			next = c.coFirst[l.loadLoc[k]]
		}
		if next >= 0 {
			c.edges = append(c.edges, edge{l.loadEv[k], l.storeEv[next], relFr})
		}
	}
	for st, next := range c.coNext {
		if next >= 0 {
			c.edges = append(c.edges, edge{l.storeEv[st], l.storeEv[next], relCo})
		}
	}

	if c.kahn() {
		return nil
	}
	return c.violation(w, s, ax.Axiom)
}

// kahn topologically sorts the current edge set over CSR-packed
// adjacency, returning true when the graph is acyclic. On a cycle the
// residual indegrees (and the CSR) are left in place for extraction.
func (c *Checker) kahn() bool {
	n := c.l.NEvents()
	for i := 0; i < n; i++ {
		c.indeg[i] = 0
		c.eoff[i] = 0
	}
	c.eoff[n] = 0
	for _, e := range c.edges {
		c.indeg[e.to]++
		c.eoff[e.from+1]++
	}
	for i := 0; i < n; i++ {
		c.eoff[i+1] += c.eoff[i]
	}
	if cap(c.csr) < len(c.edges) {
		c.csr = make([]edge, len(c.edges))
	}
	c.csr = c.csr[:len(c.edges)]
	// Counting sort by source; fill cursors borrow dist scratch.
	cur := c.dist[:0]
	cur = append(cur, c.eoff[:n]...)
	for _, e := range c.edges {
		c.csr[cur[e.from]] = e
		cur[e.from]++
	}

	q := c.queue[:0]
	for i := 0; i < n; i++ {
		if c.indeg[i] == 0 {
			q = append(q, int32(i))
		}
	}
	processed := 0
	for len(q) > 0 {
		node := q[0]
		q = q[1:]
		processed++
		for i := c.eoff[node]; i < c.eoff[node+1]; i++ {
			to := c.csr[i].to
			c.indeg[to]--
			if c.indeg[to] == 0 {
				q = append(q, to)
			}
		}
	}
	return processed == n
}

// violation extracts a minimal cycle from the residual graph left by a
// failed kahn pass: nodes with positive residual indegree are the union
// of all cycles and their downstream cones; a BFS from each candidate,
// restricted to residual nodes, finds the shortest path back to itself,
// and the overall shortest (first on ties, in event order) is reported.
// Violations are cold, so the quadratic sweep costs nothing in the
// common all-consistent stream.
func (c *Checker) violation(w *WitnessSet, s int, ax memmodel.Axiom) *Violation {
	n := c.l.NEvents()
	bestLen := int32(-1)
	var best []int32 // csr edge indices of the winning cycle, in order
	for root := int32(0); root < int32(n); root++ {
		if c.indeg[root] <= 0 {
			continue
		}
		if cyc := c.shortestCycleFrom(root, bestLen); cyc != nil {
			best, bestLen = cyc, int32(len(cyc))
		}
	}
	v := &Violation{
		Test:  c.l.test,
		Model: c.model,
		Axiom: ax.Name,
		Union: ax.Union(),
		Iter:  w.Iter(s),
		RF:    append([]int32(nil), w.RFAt(s)...),
		Co:    append([]int32(nil), w.CoAt(s)...),
		l:     c.l,
	}
	for _, ei := range best {
		e := c.csr[ei]
		v.Cycle = append(v.Cycle, CycleEdge{
			From: c.l.events[e.from],
			To:   c.l.events[e.to],
			Rel:  e.rel.label(ax),
		})
	}
	return v
}

// shortestCycleFrom BFSes the residual subgraph for the shortest path
// root → … → root, returning its csr edge indices, or nil when none
// shorter than bound exists (bound < 0 means unbounded).
func (c *Checker) shortestCycleFrom(root, bound int32) []int32 {
	n := c.l.NEvents()
	for i := 0; i < n; i++ {
		c.dist[i] = -1
		c.prevEdg[i] = -1
	}
	q := c.queue[:0]
	c.dist[root] = 0
	q = append(q, root)
	var closing int32 = -1 // csr index of the edge that closes the cycle
	var closeAt int32
	for qi := 0; qi < len(q) && closing < 0; qi++ {
		node := q[qi]
		if bound >= 0 && c.dist[node]+1 >= bound {
			continue
		}
		for i := c.eoff[node]; i < c.eoff[node+1]; i++ {
			to := c.csr[i].to
			if c.indeg[to] <= 0 {
				continue // not part of the residual graph
			}
			if to == root {
				closing, closeAt = i, node
				break
			}
			if c.dist[to] < 0 {
				c.dist[to] = c.dist[node] + 1
				c.prevEdg[to] = i
				q = append(q, to)
			}
		}
	}
	if closing < 0 {
		return nil
	}
	var rev []int32
	rev = append(rev, closing)
	for at := closeAt; at != root; {
		ei := c.prevEdg[at]
		rev = append(rev, ei)
		at = c.csr[ei].from
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
