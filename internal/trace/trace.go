// Package trace is the streaming witness-verification plane: it checks
// every execution the simulator actually ran, not just final states
// (the oracle) or tiny enumerable shapes (the axiomatic checker).
//
// The simulator, when witness recording is on, emits per execution the
// reads-from source of every load and the per-location coherence order
// of stores — together a *witness* in the sense of Roy et al., "Fast
// and Generalized Polynomial Time Memory Consistency Verification".
// With rf and co given, consistency checking is polynomial: each of the
// model's acyclicity axioms (internal/memmodel defines them) names a
// relation union that must be acyclic, and acyclicity of a graph with
// O(events) edges is checked in near-linear time by a topological pass.
// That lifts soundness checking to arbitrary-size programs: the
// per-witness cost is linear in the test's event count, independent of
// any enumeration cutoff.
//
// The package is layered for streaming reuse: a Layout is compiled once
// per test (dense event numbering, store-value lookup); a WitnessSet is
// a flat reusable buffer the simulator fills with zero steady-state
// allocation; a Checker compiles a model's static program-order edges
// once and validates one witness at a time against reusable scratch,
// producing a minimal human-readable cycle report on violation. The
// differential tests hold it to internal/axiom, which enumerates
// against the same definition, and to an independent quadratic checker.
package trace

import (
	"perple/internal/litmus"
	"perple/internal/memmodel"
)

// Layout is a litmus test compiled for witness recording and checking:
// model-independent dense event numbering and the value→store lookup
// the simulator uses to identify a drained or forwarded store (store
// values are unique per location, a litmus validation invariant). A
// Layout is immutable and may be shared by any number of recorders and
// checkers concurrently.
//
// Dense numbering convention (shared with the simulator's compiled
// programs): events, loads and stores are each numbered in (thread,
// instruction index) order. RF and Co arrays in a WitnessSet are
// expressed in these dense load/store indices; -1 is the init
// pseudo-store.
type Layout struct {
	test *litmus.Test
	locs []litmus.Loc

	events  []memmodel.EventRef // event index -> (thread, instruction); fences included
	loadEv  []int32             // dense load index -> event index
	storeEv []int32             // dense store index -> event index

	loadLoc  []int32 // dense load index -> location index
	storeLoc []int32 // dense store index -> location index
	storeVal []int64 // dense store index -> stored value

	storesByLoc [][]int32 // location index -> dense store indices, po-scan order
}

// NewLayout validates and compiles a litmus test for witness recording
// and checking.
func NewLayout(t *litmus.Test) (*Layout, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	locs := t.Locs()
	locIdx := make(map[litmus.Loc]int32, len(locs))
	for i, l := range locs {
		locIdx[l] = int32(i)
	}
	l := &Layout{
		test:        t,
		locs:        locs,
		storesByLoc: make([][]int32, len(locs)),
	}
	for ti, th := range t.Threads {
		for ii, in := range th.Instrs {
			ev, loc := int32(len(l.events)), locIdx[in.Loc]
			l.events = append(l.events, memmodel.EventRef{Thread: ti, Index: ii})
			switch in.Kind {
			case litmus.OpLoad:
				l.loadEv = append(l.loadEv, ev)
				l.loadLoc = append(l.loadLoc, loc)
			case litmus.OpStore:
				l.storesByLoc[loc] = append(l.storesByLoc[loc], int32(len(l.storeEv)))
				l.storeEv = append(l.storeEv, ev)
				l.storeLoc = append(l.storeLoc, loc)
				l.storeVal = append(l.storeVal, in.Value)
			}
		}
	}
	return l, nil
}

// Test returns the source litmus test.
func (l *Layout) Test() *litmus.Test { return l.test }

// Locs returns the shared locations in dense index order. Callers must
// not modify the returned slice.
func (l *Layout) Locs() []litmus.Loc { return l.locs }

// NEvents returns the event count (loads + stores + fences).
func (l *Layout) NEvents() int { return len(l.events) }

// NLoads returns the dense load count.
func (l *Layout) NLoads() int { return len(l.loadEv) }

// NStores returns the dense store count.
func (l *Layout) NStores() int { return len(l.storeEv) }

// LoadRef resolves a dense load index to its event reference.
func (l *Layout) LoadRef(i int32) memmodel.EventRef { return l.events[l.loadEv[i]] }

// StoreRef resolves a dense store index to its event reference; -1 maps
// to the init pseudo-store.
func (l *Layout) StoreRef(i int32) memmodel.EventRef {
	if i < 0 {
		return memmodel.EventRef{Thread: -1, Index: -1}
	}
	return l.events[l.storeEv[i]]
}

// StoreIdxFor identifies the store of val to the location, or -1. Store
// values are unique per location (litmus validation), so a drained or
// forwarded value names its store unambiguously; the simulator's
// recorder resolves co entries and forwarded rf edges through this.
func (l *Layout) StoreIdxFor(locIdx int, val int64) int32 {
	for _, s := range l.storesByLoc[locIdx] {
		if l.storeVal[s] == val {
			return s
		}
	}
	return -1
}

// StoreLoc returns the dense location index a store writes.
func (l *Layout) StoreLoc(i int32) int { return int(l.storeLoc[i]) }

// LoadLoc returns the dense location index a load reads.
func (l *Layout) LoadLoc(i int32) int { return int(l.loadLoc[i]) }

// WitnessSet is a flat reusable buffer of recorded witnesses: one slot
// per sampled execution of a run. The simulator fills it in place; all
// backing arrays are recycled across runs, so steady-state recording
// performs no allocation.
//
// Slot layout: slot s holds iteration s·Every of the run. RF[s·NLoads+k]
// is the dense store index load k read (-1 = init). Co[s·NStores..] is
// the execution's stores in global memory-commit (drain) order — the
// per-location coherence orders are its per-location subsequences,
// which the checker splits using the layout's static store→location
// table.
type WitnessSet struct {
	layout          *Layout
	nLoads, nStores int

	// N is the run's iteration count, Every the sampling stride
	// (slot s ↔ iteration s·Every), Slots the recorded execution count.
	N, Every, Slots int

	// RF and Co are the packed witness arrays described above. Exposed
	// for the checker, the differential tests and their mutation
	// helpers; the simulator writes through SetRF/AppendCo.
	RF []int32
	Co []int32

	coCur []int32 // per-slot fill cursor for Co (drains interleave in ModeNone)
}

// NewWitnessSet builds an empty witness buffer over a layout; Reset
// sizes it for a run.
func NewWitnessSet(l *Layout) *WitnessSet {
	w := &WitnessSet{}
	w.Retarget(l)
	return w
}

// Retarget points the buffer at another layout, keeping its backing
// arrays; Reset sizes it for the next run.
func (w *WitnessSet) Retarget(l *Layout) {
	w.layout, w.nLoads, w.nStores = l, l.NLoads(), l.NStores()
}

// Layout returns the compiled test layout the witnesses are expressed
// against.
func (w *WitnessSet) Layout() *Layout { return w.layout }

// Reset prepares the buffer for an n-iteration run sampled every
// every-th iteration, reusing backing arrays. every must be ≥ 1.
func (w *WitnessSet) Reset(n, every int) {
	if every < 1 {
		every = 1
	}
	w.N, w.Every = n, every
	w.Slots = (n + every - 1) / every
	w.RF = resizeFill(w.RF, w.Slots*w.layout.NLoads(), -1)
	w.Co = resizeFill(w.Co, w.Slots*w.layout.NStores(), -1)
	w.coCur = resizeFill(w.coCur, w.Slots, 0)
}

// Iter returns the run iteration slot s records.
func (w *WitnessSet) Iter(s int) int { return s * w.Every }

// SetRF records the rf source of dense load k in slot s: a dense store
// index, or -1 for init.
func (w *WitnessSet) SetRF(s int, k, src int32) {
	w.RF[s*w.nLoads+int(k)] = src
}

// AppendCo records the next store (in global drain order) of slot s.
func (w *WitnessSet) AppendCo(s int, store int32) {
	w.Co[s*w.nStores+int(w.coCur[s])] = store
	w.coCur[s]++
}

// RFAt returns slot s's rf assignment, indexed by dense load index.
func (w *WitnessSet) RFAt(s int) []int32 {
	return w.RF[s*w.nLoads : (s+1)*w.nLoads]
}

// CoAt returns slot s's stores in global drain order.
func (w *WitnessSet) CoAt(s int) []int32 {
	return w.Co[s*w.nStores : (s+1)*w.nStores]
}

// resizeFill returns s resized to n elements all set to fill, reusing
// the backing array when large enough.
func resizeFill(s []int32, n int, fill int32) []int32 {
	if cap(s) < n {
		s = make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = fill
	}
	return s
}
