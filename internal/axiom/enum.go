package axiom

import (
	"math/bits"

	"perple/internal/litmus"
	"perple/internal/memmodel"
)

// event is one memory event: a dynamic load or store. Fences are not
// events — their effect is folded into the ppo mask (a fence between a
// relaxed pair of the same thread restores the dropped edge), which is
// sound because a direct po edge subsumes any fence-mediated path. Event
// 0 is the init pseudo-store writing every location's initial value.
type event struct {
	thread int // -1 for init
	index  int // instruction index within the thread
	kind   litmus.OpKind
	loc    litmus.Loc
	value  int64 // store immediate
	reg    int   // load destination register
}

// wsPerm is one memoized coherence order for a location: the stores in
// order, the immediate-successor table for from-read edges, and the
// endpoints. Only permutations consistent with same-thread program order
// are materialized (co must extend po|loc, or coherence fails trivially).
type wsPerm struct {
	order []int
	succ  []int // succ[eventID] = immediate co-successor, -1 if none/absent
	first int   // init's co-successor
	last  int   // final store; its value is the location's final memory
}

// analysis holds everything memoized once per test: the event set, the
// static relation bitmasks, the pruned reads-from candidate lists, the
// po-consistent coherence permutations with their fr tables, and all
// scratch buffers the per-candidate checks reuse. Events are uint64 bit
// positions throughout (MaxEvents+1 ≤ 64 always holds).
type analysis struct {
	t   *litmus.Test
	lim Limits

	events []event
	locs   []litmus.Loc

	// weak and sc are the enumerated model's axioms and SC's, compiled
	// to bitmask rows.
	weak, sc []compiledAxiom

	loads   []int // load event ids in (thread, index) order
	loadPos []int // event id -> index in loads, -1 otherwise
	stores  map[litmus.Loc][]int

	rfCands [][]int // rfCands[k]: candidate stores for loads[k] (0 = init)

	permLocs []litmus.Loc // locations with ≥1 store, sorted
	locIdx   map[litmus.Loc]int
	perms    [][]wsPerm // per permLocs entry

	lastLoad [][]int // lastLoad[thread][reg] = final load event id, or -1

	// Scratch reused across candidates (no per-candidate allocation on the
	// reject path).
	permChoice []*wsPerm
	dynAll     []uint64 // co ∪ rf ∪ fr
	dynExt     []uint64 // co ∪ rfe ∪ fr (external reads-from only)
	readVal    []int64  // value observed by loads[k]
	rem        []uint64
	color      []int8
	stack      []int
}

// compiledAxiom is one memmodel.Axiom over event ids: its po scope as
// bitmask rows, and the scratch rows its rf scope's dynamic edges go to.
type compiledAxiom struct {
	po, dyn []uint64
}

// newAnalysis memoizes the test for one enumeration under model weak.
// Every weakly consistent candidate is also checked against SC, which
// flags the SC-allowed states.
func newAnalysis(t *litmus.Test, lim Limits, weak memmodel.Model) (*analysis, error) {
	nInstrs, nEvents := 0, 0
	for _, th := range t.Threads {
		nInstrs += len(th.Instrs)
		for _, in := range th.Instrs {
			if in.Kind != litmus.OpFence {
				nEvents++
			}
		}
	}
	if len(t.Threads) > lim.MaxThreads || nEvents > lim.MaxEvents {
		return nil, &TooLargeError{Test: t.Name, Threads: len(t.Threads), Events: nEvents, Limits: lim}
	}

	a := &analysis{
		t:      t,
		lim:    lim,
		locs:   t.Locs(),
		stores: map[litmus.Loc][]int{},
		locIdx: map[litmus.Loc]int{},
	}
	a.events = append(a.events, event{thread: -1, index: -1})
	eventID := make([]int, 0, nInstrs) // instruction, in (thread, index) order -> event id, 0 for fences
	for ti, th := range t.Threads {
		for ii, in := range th.Instrs {
			if in.Kind == litmus.OpFence {
				eventID = append(eventID, 0)
				continue
			}
			id := len(a.events)
			eventID = append(eventID, id)
			a.events = append(a.events, event{
				thread: ti, index: ii, kind: in.Kind,
				loc: in.Loc, value: in.Value, reg: in.Reg,
			})
			if in.Kind == litmus.OpLoad {
				a.loads = append(a.loads, id)
			} else {
				a.stores[in.Loc] = append(a.stores[in.Loc], id)
			}
		}
	}
	n := len(a.events)

	a.loadPos = make([]int, n)
	for i := range a.loadPos {
		a.loadPos[i] = -1
	}
	for k, lid := range a.loads {
		a.loadPos[lid] = k
	}

	a.dynAll = make([]uint64, n)
	a.dynExt = make([]uint64, n)
	compile := func(m memmodel.Model) []compiledAxiom {
		out := make([]compiledAxiom, 0, len(m.Axioms()))
		for _, ax := range m.Axioms() {
			po := make([]uint64, n)
			ids := eventID
			for _, th := range t.Threads {
				m.Ordered(ax.PO, th.Instrs, func(i, j int) {
					if from, to := ids[i], ids[j]; from > 0 && to > 0 {
						po[from] |= 1 << to
					}
				})
				ids = ids[len(th.Instrs):]
			}
			dyn := a.dynAll
			if ax.RF == memmodel.RFE {
				dyn = a.dynExt
			}
			out = append(out, compiledAxiom{po: po, dyn: dyn})
		}
		return out
	}
	a.weak, a.sc = compile(weak), compile(memmodel.SC)

	a.buildRFCands()
	a.buildPerms()

	regs := t.Regs()
	a.lastLoad = make([][]int, len(t.Threads))
	for ti := range a.lastLoad {
		a.lastLoad[ti] = make([]int, regs[ti])
		for r := range a.lastLoad[ti] {
			a.lastLoad[ti][r] = -1
		}
	}
	for _, lid := range a.loads {
		le := &a.events[lid]
		a.lastLoad[le.thread][le.reg] = lid // loads come in po order
	}

	a.permChoice = make([]*wsPerm, len(a.permLocs))
	a.readVal = make([]int64, len(a.loads))
	a.rem = make([]uint64, n)
	a.color = make([]int8, n)
	a.stack = make([]int, 0, n)
	return a, nil
}

// buildRFCands prunes per-load reads-from candidates to those not
// trivially coherence-violating: a load never reads a same-thread
// po-later store, never reads init past a same-thread earlier store to
// the location, and never reads a same-thread store that a later
// same-thread store to the location overwrites before the load. The
// pruned choices are exactly those the coherence axiom would reject for
// every coherence order, so dropping them statically shrinks the
// enumeration without changing the consistent set.
func (a *analysis) buildRFCands() {
	a.rfCands = make([][]int, len(a.loads))
	for k, lid := range a.loads {
		le := &a.events[lid]
		poEarlierStore := false
		for _, sid := range a.stores[le.loc] {
			se := &a.events[sid]
			if se.thread == le.thread && se.index < le.index {
				poEarlierStore = true
			}
		}
		var cands []int
		if !poEarlierStore {
			cands = append(cands, 0)
		}
		for _, sid := range a.stores[le.loc] {
			se := &a.events[sid]
			if se.thread == le.thread {
				if se.index > le.index {
					continue
				}
				overwritten := false
				for _, s2 := range a.stores[le.loc] {
					e2 := &a.events[s2]
					if e2.thread == le.thread && e2.index > se.index && e2.index < le.index {
						overwritten = true
						break
					}
				}
				if overwritten {
					continue
				}
			}
			cands = append(cands, sid)
		}
		a.rfCands[k] = cands
	}
}

// buildPerms materializes, per location, every coherence order consistent
// with same-thread program order, with memoized successor tables.
func (a *analysis) buildPerms() {
	for _, loc := range a.locs {
		if len(a.stores[loc]) == 0 {
			continue
		}
		a.locIdx[loc] = len(a.permLocs)
		a.permLocs = append(a.permLocs, loc)
		a.perms = append(a.perms, a.permsOf(loc))
	}
}

func (a *analysis) permsOf(loc litmus.Loc) []wsPerm {
	ids := a.stores[loc] // (thread, index) order
	var out []wsPerm
	cur := make([]int, 0, len(ids))
	used := make([]bool, len(ids))
	var rec func()
	rec = func() {
		if len(cur) == len(ids) {
			out = append(out, a.newPerm(cur))
			return
		}
		for i, id := range ids {
			if used[i] {
				continue
			}
			// po-pruning: a store is placeable only once every same-thread
			// po-earlier store to this location is already placed.
			blocked := false
			for j := 0; j < i; j++ {
				if !used[j] && a.events[ids[j]].thread == a.events[id].thread {
					blocked = true
					break
				}
			}
			if blocked {
				continue
			}
			used[i] = true
			cur = append(cur, id)
			rec()
			cur = cur[:len(cur)-1]
			used[i] = false
		}
	}
	rec()
	return out
}

func (a *analysis) newPerm(order []int) wsPerm {
	p := wsPerm{
		order: append([]int(nil), order...),
		succ:  make([]int, len(a.events)),
		first: order[0],
		last:  order[len(order)-1],
	}
	for i := range p.succ {
		p.succ[i] = -1
	}
	for i := 0; i+1 < len(order); i++ {
		p.succ[order[i]] = order[i+1]
	}
	return p
}

// enumerate walks the full candidate space — an odometer over the rf
// choice of every load and the coherence order of every location — and
// feeds each candidate to check.
func (a *analysis) enumerate(rep *Report) {
	nd := len(a.loads) + len(a.permLocs)
	idx := make([]int, nd)
	sizes := make([]int, nd)
	for k := range a.loads {
		sizes[k] = len(a.rfCands[k])
		if sizes[k] == 0 {
			return // unreachable: init is always a fallback candidate
		}
	}
	for k := range a.permLocs {
		sizes[len(a.loads)+k] = len(a.perms[k])
	}
	for {
		a.check(rep, idx)
		d := nd - 1
		for d >= 0 {
			idx[d]++
			if idx[d] < sizes[d] {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			return
		}
	}
}

// check tests one candidate execution against the enumerated model's
// axioms, then, if it passes them, against SC's (memmodel defines both).
// SC's edge sets contain every weak model's (ppo ⊆ po, rfe ⊆ rf), so
// SC-consistency implies weak consistency and SC is only checked for
// weakly consistent candidates. co is added as its chain (reachability-
// equivalent to the full total order) and each load contributes a single
// fr edge to the immediate co-successor of the store it reads — the co
// chain supplies the rest of fr transitively.
func (a *analysis) check(rep *Report, idx []int) {
	rep.Executions++
	t := a.t
	dynAll, dynExt := a.dynAll, a.dynExt
	for i := range dynAll {
		dynAll[i], dynExt[i] = 0, 0
	}

	// Coherence orders: co chain edges (external to every thread → both
	// edge sets).
	for k := range a.permLocs {
		p := &a.perms[k][idx[len(a.loads)+k]]
		a.permChoice[k] = p
		dynAll[0] |= 1 << p.first
		dynExt[0] |= 1 << p.first
		for j := 0; j+1 < len(p.order); j++ {
			dynAll[p.order[j]] |= 1 << p.order[j+1]
			dynExt[p.order[j]] |= 1 << p.order[j+1]
		}
	}

	// Reads-from and from-read edges.
	for k, lid := range a.loads {
		sid := a.rfCands[k][idx[k]]
		le := &a.events[lid]
		dynAll[sid] |= 1 << lid
		if a.events[sid].thread != le.thread {
			// rfe: only an external read proves the store left the buffer.
			// An internal rf is store-to-load forwarding and stays out of ghb.
			dynExt[sid] |= 1 << lid
		}
		if sid == 0 {
			a.readVal[k] = t.Init[le.loc]
		} else {
			a.readVal[k] = a.events[sid].value
		}
		// fr: the load is before every store co-after the one it read;
		// the edge to the immediate successor reaches the rest via co.
		next := -1
		if pi, ok := a.locIdx[le.loc]; ok {
			if sid == 0 {
				next = a.permChoice[pi].first
			} else {
				next = a.permChoice[pi].succ[sid]
			}
		}
		if next > 0 {
			dynAll[lid] |= 1 << next
			dynExt[lid] |= 1 << next
		}
	}

	for _, ax := range a.weak {
		if !a.acyclic(ax.po, ax.dyn) {
			return // forbidden by the model (hence SC-forbidden)
		}
	}
	rep.Consistent++
	sc := true
	for _, ax := range a.sc {
		if !a.acyclic(ax.po, ax.dyn) {
			sc = false
			break
		}
	}

	// Final state: each register holds its last load's observed value;
	// each location holds its last coherence-order store.
	regs := make([][]int64, len(t.Threads))
	for ti := range regs {
		regs[ti] = make([]int64, len(a.lastLoad[ti]))
		for r, lid := range a.lastLoad[ti] {
			if lid >= 0 {
				regs[ti][r] = a.readVal[a.loadPos[lid]]
			}
		}
	}
	mem := make(map[litmus.Loc]int64, len(a.locs))
	for _, loc := range a.locs {
		mem[loc] = t.Init[loc]
	}
	for k, loc := range a.permLocs {
		mem[loc] = a.events[a.permChoice[k].last].value
	}

	key := memmodel.StateKey(t, regs, mem)
	if i, ok := rep.keys[key]; ok {
		if sc && !rep.Results[i].SC {
			rep.Results[i].SC = true
			rep.Results[i].WitnessSC = a.witness(idx, regs, mem)
		}
		return
	}
	w := a.witness(idx, regs, mem)
	res := Result{Regs: regs, Mem: mem, SC: sc, WitnessWeak: w}
	if sc {
		res.WitnessSC = w
	}
	rep.keys[key] = len(rep.Results)
	rep.Results = append(rep.Results, res)
}

// acyclic reports whether base ∪ dyn is a DAG, via iterative DFS over the
// bitmask adjacency with reused buffers.
func (a *analysis) acyclic(base, dyn []uint64) bool {
	n := len(a.events)
	color := a.color
	for i := 0; i < n; i++ {
		color[i] = 0
	}
	rem := a.rem
	stack := a.stack[:0]
	for root := 0; root < n; root++ {
		if color[root] != 0 {
			continue
		}
		color[root] = 1
		rem[root] = base[root] | dyn[root]
		stack = append(stack, root)
		for len(stack) > 0 {
			node := stack[len(stack)-1]
			if rem[node] != 0 {
				to := bits.TrailingZeros64(rem[node])
				rem[node] &= rem[node] - 1
				switch color[to] {
				case 1:
					return false
				case 0:
					color[to] = 1
					rem[to] = base[to] | dyn[to]
					stack = append(stack, to)
				}
				continue
			}
			color[node] = 2
			stack = stack[:len(stack)-1]
		}
	}
	return true
}
