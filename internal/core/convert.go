// Package core implements the PerpLE Converter and outcome counters: the
// paper's primary contribution. It converts litmus tests to perpetual
// litmus tests (Section III: per-iteration synchronization removed,
// stored constants replaced by arithmetic sequences k_mem·n + a),
// converts outcomes of interest to perpetual outcomes (Section IV-A:
// happens-before analysis turned into inequalities over buf arrays and
// iteration indices), derives the linear heuristic conditions (Section
// IV-B: substitution step 5), and provides the exhaustive COUNT and
// heuristic COUNTH outcome counters (Algorithms 1 and 2). codegen.go
// additionally emits the counters as Go source and the perpetual thread
// programs as x86-flavoured assembly, mirroring the C and assembly files
// the paper's Converter produces.
package core

import (
	"fmt"

	"perple/internal/litmus"
)

// SeqStore describes the arithmetic sequence assigned to one store
// instruction of the perpetual test: at iteration n of its thread the
// instruction stores K·n + A.
type SeqStore struct {
	Ref litmus.InstrRef
	Loc litmus.Loc
	// OrigValue is the constant the original litmus test stored.
	OrigValue int64
	// K is k_mem: the number of distinct values stored to Loc test-wide.
	K int64
	// A is the sequence offset, a normalized form of OrigValue in 1..K.
	A int64
}

// Value returns the element of the sequence stored at iteration n.
func (s SeqStore) Value(n int64) int64 { return s.K*n + s.A }

// DecodeIteration inverts Value: given a loaded value v belonging to this
// store's sequence it returns the iteration that stored it. ok is false
// when v is not a member of the sequence (v ≤ 0, wrong residue, or wrong
// offset).
func (s SeqStore) DecodeIteration(v int64) (n int64, ok bool) {
	if v < s.A || (v-s.A)%s.K != 0 {
		return 0, false
	}
	return (v - s.A) / s.K, true
}

// PerpetualTest is the output of converting a litmus test per Table I of
// the paper: the same loads and fences, stores rewritten to arithmetic
// sequences, no per-iteration barrier and no memory reset.
type PerpetualTest struct {
	// Orig is the source litmus test (not retained by reference holders;
	// treat as read-only).
	Orig *litmus.Test
	// K maps each location to k_mem.
	K map[litmus.Loc]int64
	// Stores holds the sequence assignment of every store instruction, in
	// (thread, index) order.
	Stores []SeqStore
	// Reads is t_i_reads from the paper: loads per iteration per thread.
	// The Harness sizes buf_t as Reads[t]·N.
	Reads []int
	// LoadThreads lists the threads with Reads > 0 in increasing order;
	// frames are tuples over these threads.
	LoadThreads []int
	// LoadSlot maps (thread, register) to the buf slot written by the
	// last load into that register per iteration, or -1. Slot i of thread
	// t at iteration n lives at buf[t][Reads[t]*n + i].
	LoadSlot [][]int
	// LoadLoc maps (thread, slot) to the location that slot's load reads.
	LoadLoc [][]litmus.Loc
}

// Convert builds the perpetual counterpart of a litmus test. It fails for
// tests that initialize some location to a non-zero value (the arithmetic
// sequence construction reserves 0 for "not yet stored") — such tests are
// not convertible and must run under the traditional harness.
func Convert(t *litmus.Test) (*PerpetualTest, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	for loc, v := range t.Init {
		if v != 0 {
			return nil, fmt.Errorf("core: %s: location %s initialized to %d; perpetual conversion requires zero-initialized memory", t.Name, loc, v)
		}
	}

	pt := &PerpetualTest{Orig: t, K: map[litmus.Loc]int64{}}

	// k_mem and value normalization: the distinct stored values of each
	// location, in ascending order, become offsets 1..k so that every
	// sequence member uniquely decodes to (store, iteration).
	offset := map[litmus.Loc]map[int64]int64{}
	for _, loc := range t.Locs() {
		vals := t.StoreValues(loc)
		pt.K[loc] = int64(len(vals))
		m := make(map[int64]int64, len(vals))
		for i, v := range vals {
			m[v] = int64(i + 1)
		}
		offset[loc] = m
	}

	pt.Reads = make([]int, len(t.Threads))
	pt.LoadSlot = make([][]int, len(t.Threads))
	pt.LoadLoc = make([][]litmus.Loc, len(t.Threads))
	regs := t.Regs()
	for ti, th := range t.Threads {
		pt.LoadSlot[ti] = make([]int, regs[ti])
		for r := range pt.LoadSlot[ti] {
			pt.LoadSlot[ti][r] = -1
		}
		for ii, in := range th.Instrs {
			switch in.Kind {
			case litmus.OpStore:
				pt.Stores = append(pt.Stores, SeqStore{
					Ref:       litmus.InstrRef{Thread: ti, Index: ii},
					Loc:       in.Loc,
					OrigValue: in.Value,
					K:         pt.K[in.Loc],
					A:         offset[in.Loc][in.Value],
				})
			case litmus.OpLoad:
				slot := pt.Reads[ti]
				pt.Reads[ti]++
				pt.LoadSlot[ti][in.Reg] = slot
				pt.LoadLoc[ti] = append(pt.LoadLoc[ti], in.Loc)
			}
		}
		if pt.Reads[ti] > 0 {
			pt.LoadThreads = append(pt.LoadThreads, ti)
		}
	}
	return pt, nil
}

// TL returns the number of load-performing threads.
func (pt *PerpetualTest) TL() int { return len(pt.LoadThreads) }

// StoreFor returns the sequence store whose location is loc and whose
// normalized offset is a, or nil.
func (pt *PerpetualTest) StoreFor(loc litmus.Loc, a int64) *SeqStore {
	for i := range pt.Stores {
		if pt.Stores[i].Loc == loc && pt.Stores[i].A == a {
			return &pt.Stores[i]
		}
	}
	return nil
}

// StoreForValue returns the sequence store for the original constant v at
// loc, or nil when no thread stores v to loc.
func (pt *PerpetualTest) StoreForValue(loc litmus.Loc, v int64) *SeqStore {
	for i := range pt.Stores {
		if pt.Stores[i].Loc == loc && pt.Stores[i].OrigValue == v {
			return &pt.Stores[i]
		}
	}
	return nil
}

// SlotOf returns the buf slot recording register r of thread t (the last
// load into that register each iteration). The second result is false if
// the register is never loaded.
func (pt *PerpetualTest) SlotOf(t, r int) (int, bool) {
	if t < 0 || t >= len(pt.LoadSlot) || r < 0 || r >= len(pt.LoadSlot[t]) {
		return 0, false
	}
	s := pt.LoadSlot[t][r]
	return s, s >= 0
}
