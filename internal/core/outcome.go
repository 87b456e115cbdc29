package core

import (
	"fmt"
	"sort"
	"strings"

	"perple/internal/litmus"
)

// Rel is the happens-before kind of a perpetual-outcome constraint.
type Rel int

const (
	// RF is a read-from constraint: the load read the target store's
	// iteration-m value or a provably later drain of the same thread.
	// For a single-sequence location this is exactly the paper's
	// "X ≥ K·m + A"; with multiple stores per location the loaded value
	// must additionally lie on one of the target thread's sequences (the
	// paper's "term of the appropriate sequence"), since only same-thread
	// drains are FIFO-ordered and numeric comparison across threads'
	// sequences would be unsound.
	RF Rel = iota
	// FR is a from-read constraint: the load happened before the target
	// store's iteration-m drain. Reading 0 satisfies it for any m; reading
	// a same-thread value bounds m from below using the thread's FIFO
	// drain order (exactly the paper's "X ≤ K·m + A − 1" for single
	// sequences); reading another thread's value falls back to the
	// paper's numeric relaxation ("any term smaller than that stored"),
	// since cross-thread drains carry no provable order. No Table II
	// target combines a forbidden pattern with a cross-thread fr
	// condition, so the relaxation cannot introduce false positives on
	// the suite (the harness tests check this end to end).
	FR
	// EQZero constrains the loaded value to be exactly the initial 0;
	// used when the outcome expects 0 from a location no thread stores.
	EQZero
)

func (r Rel) String() string {
	switch r {
	case RF:
		return "rf"
	case FR:
		return "fr"
	case EQZero:
		return "=0"
	default:
		return fmt.Sprintf("Rel(%d)", int(r))
	}
}

// BufRef identifies a loaded value within the in-memory run results: slot
// Slot of thread Thread, i.e. buf[Thread][Reads[Thread]·n + Slot] once
// the thread's iteration index n is known.
type BufRef struct {
	Thread int
	Slot   int
}

// Constraint is one condition of a perpetual outcome (paper Fig. 6 steps
// 1-4): the buf value Ref, read at its thread's frame index, related by
// Rel to iteration variable Var's store.
type Constraint struct {
	Ref BufRef
	Rel Rel
	// Var is the thread whose iteration variable appears on the
	// right-hand side (the target store's thread); -1 for EQZero.
	Var int
	// K is k_mem of the loaded location and A the target store's
	// normalized offset, so the target store writes K·m + A at its
	// iteration m.
	K, A int64
	// StoreIdx is the target store's instruction index within thread Var,
	// ordering same-iteration drains of the same thread.
	StoreIdx int
	// SeqThread and SeqIdx decode loaded values: offset a (1-based) was
	// stored by thread SeqThread[a-1] at instruction index SeqIdx[a-1].
	SeqThread []int
	SeqIdx    []int
}

// String renders the constraint in the paper's Figure 6 inequality form;
// for multi-sequence locations the sequence-membership requirement is
// noted.
func (c Constraint) String() string {
	if c.Rel == EQZero {
		return fmt.Sprintf("buf%d[%d] == 0", c.Ref.Thread, c.Ref.Slot)
	}
	op := ">="
	cc := c.A
	if c.Rel == FR {
		op = "<="
		cc = c.A - 1
	}
	rhs := fmt.Sprintf("n%d", c.Var)
	if c.K != 1 {
		rhs = fmt.Sprintf("%d*n%d", c.K, c.Var)
	}
	if cc > 0 {
		rhs += fmt.Sprintf(" + %d", cc)
	} else if cc < 0 {
		rhs += fmt.Sprintf(" - %d", -cc)
	}
	s := fmt.Sprintf("buf%d[%d] %s %s", c.Ref.Thread, c.Ref.Slot, op, rhs)
	if c.K > 1 {
		s += fmt.Sprintf(" [on seq of t%d]", c.Var)
	}
	return s
}

// PinKind tells how the heuristic derives a non-anchor iteration variable
// (paper Fig. 8 step 5).
type PinKind int

const (
	// PinRF decodes the partner iteration from a read-from value:
	// m = (X − C) / K, valid only when X lies on the sequence.
	PinRF PinKind = iota
	// PinFR takes the tightest iteration satisfying a from-read bound:
	// m = ceil((X − C) / K), clamped at 0.
	PinFR
	// PinDiagonal falls back to the anchor index when no condition
	// observes the thread's progress (e.g. the second reader of iriw).
	PinDiagonal
)

func (k PinKind) String() string {
	switch k {
	case PinRF:
		return "rf"
	case PinFR:
		return "fr"
	case PinDiagonal:
		return "diag"
	default:
		return fmt.Sprintf("PinKind(%d)", int(k))
	}
}

// Pin is one substitution step of the heuristic plan: derive iteration
// variable Var from the constraint at index Constraint of the outcome.
type Pin struct {
	Var        int
	Kind       PinKind
	Constraint int // index into Constraints; -1 for PinDiagonal
}

// PerpetualOutcome is a litmus outcome converted per Section IV-A: a
// conjunction of constraints over buf values and per-thread iteration
// variables, plus the heuristic evaluation plan of Section IV-B.
type PerpetualOutcome struct {
	Orig        litmus.Outcome
	Constraints []Constraint
	// FrameVars are the threads whose iteration variables form the frame
	// (the load-performing threads), in increasing order.
	FrameVars []int
	// ExistVars are store-only threads whose iteration variables are
	// existentially quantified and eliminated by interval intersection.
	ExistVars []int
	// Pins is the heuristic substitution plan, in evaluation order.
	Pins []Pin
	// Unsatisfiable marks outcomes that can never occur: a condition
	// expects a value no thread stores, or the outcome's implied
	// write-serialization requirements are cyclic (CoherenceViolation).
	// Both counters return 0 for them.
	Unsatisfiable bool
	// CoherenceViolation marks outcomes rejected by the write-
	// serialization cycle check: the sources its same-location reads
	// designate cannot be ordered consistently with per-thread FIFO
	// drains (e.g. the co-iriw target, where the two readers require
	// opposite coherence orders of the same two stores). Such outcomes
	// are also impossible cross-iteration, so the counters report 0.
	CoherenceViolation bool
}

// String renders the perpetual outcome as the paper's step-4 conjunction.
func (po *PerpetualOutcome) String() string {
	if po.Unsatisfiable {
		return "false"
	}
	parts := make([]string, len(po.Constraints))
	for i, c := range po.Constraints {
		parts[i] = c.String()
	}
	return strings.Join(parts, " && ")
}

// ErrNotConvertible reports why an outcome cannot become perpetual.
type ErrNotConvertible struct {
	Test    string
	Outcome litmus.Outcome
	Reason  string
}

func (e *ErrNotConvertible) Error() string {
	return fmt.Sprintf("core: %s: outcome %v is not convertible: %s", e.Test, e.Outcome, e.Reason)
}

// ConvertOutcome maps an outcome of the original test to its perpetual
// counterpart, performing steps 1-4 of Section IV-A and deriving the
// heuristic plan of Section IV-B:
//
//  1. classify each condition's happens-before edge: a non-zero expected
//     value is a read-from of the unique store of that value; an expected
//     zero is a from-read of every store to the location;
//  2. replace registers by buf slots indexed per-thread;
//  3. replace constants by generic sequence members K·m + A;
//  4. relax to inequalities (rf: ≥, fr: < i.e. ≤ with C−1).
//
// Outcomes with final-memory conditions are rejected: perpetual tests can
// only inspect shared memory after the whole run (Section V-C).
func ConvertOutcome(pt *PerpetualTest, o litmus.Outcome) (*PerpetualOutcome, error) {
	t := pt.Orig
	if o.HasMemConds() {
		return nil, &ErrNotConvertible{Test: t.Name, Outcome: o,
			Reason: "it constrains final shared memory, which perpetual tests cannot inspect per iteration"}
	}

	po := &PerpetualOutcome{Orig: o}
	varUsed := map[int]bool{}

	// Per-location decode tables, shared by that location's constraints.
	seqThread := map[litmus.Loc][]int{}
	seqIdx := map[litmus.Loc][]int{}
	for _, s := range pt.Stores {
		if seqThread[s.Loc] == nil {
			k := int(pt.K[s.Loc])
			seqThread[s.Loc] = make([]int, k)
			seqIdx[s.Loc] = make([]int, k)
		}
		seqThread[s.Loc][s.A-1] = s.Ref.Thread
		seqIdx[s.Loc][s.A-1] = s.Ref.Index
	}

	for _, cond := range o.Conds {
		slot, ok := pt.SlotOf(cond.Thread, cond.Reg)
		if !ok {
			return nil, &ErrNotConvertible{Test: t.Name, Outcome: o,
				Reason: fmt.Sprintf("condition %v references a register never loaded", cond)}
		}
		ref := BufRef{Thread: cond.Thread, Slot: slot}
		loc := pt.LoadLoc[cond.Thread][slot]
		k := pt.K[loc]

		switch {
		case cond.Value == 0 && k == 0:
			// No stores to loc: the load always reads the initial 0; keep
			// an explicit check so corrupt buf data is not miscounted.
			po.Constraints = append(po.Constraints, Constraint{Ref: ref, Rel: EQZero, Var: -1})
		case cond.Value == 0:
			// fr to every store of the location: the load provably happened
			// before iteration m of each storing instruction.
			for _, s := range pt.Stores {
				if s.Loc != loc {
					continue
				}
				po.Constraints = append(po.Constraints, Constraint{
					Ref: ref, Rel: FR, Var: s.Ref.Thread,
					K: s.K, A: s.A, StoreIdx: s.Ref.Index,
					SeqThread: seqThread[loc], SeqIdx: seqIdx[loc],
				})
				varUsed[s.Ref.Thread] = true
			}
		default:
			s := pt.StoreForValue(loc, cond.Value)
			if s == nil {
				po.Unsatisfiable = true
				continue
			}
			// rf from that store: the load saw that iteration's value or a
			// provably later drain of the same thread.
			po.Constraints = append(po.Constraints, Constraint{
				Ref: ref, Rel: RF, Var: s.Ref.Thread,
				K: s.K, A: s.A, StoreIdx: s.Ref.Index,
				SeqThread: seqThread[loc], SeqIdx: seqIdx[loc],
			})
			varUsed[s.Ref.Thread] = true
		}
		varUsed[cond.Thread] = true
	}

	po.FrameVars = append([]int(nil), pt.LoadThreads...)
	for v := range varUsed {
		if pt.Reads[v] == 0 {
			po.ExistVars = append(po.ExistVars, v)
		}
	}
	sort.Ints(po.ExistVars)

	if !po.Unsatisfiable && wsCycle(pt, o) {
		po.Unsatisfiable = true
		po.CoherenceViolation = true
	}

	po.derivePins(pt)
	return po, nil
}

// wsCycle performs the write-serialization consistency check of step 1 of
// Section IV-A (the happens-before analysis) that plain per-condition
// inequalities cannot express: each thread's same-location accesses, in
// program order, force an order on the drains of the stores the outcome
// designates as read-from sources (a read after a read, a read after an
// own store, and an own store after a read each order two store events;
// per-thread drains are FIFO). A cycle in these requirements — or a read
// of the initial 0 after a designated store read — makes the outcome
// impossible in any store-atomic execution, perpetual or not.
func wsCycle(pt *PerpetualTest, o litmus.Outcome) bool {
	t := pt.Orig

	// source of each designated load, keyed by (thread, slot): a store
	// InstrRef, or initRef for the initial 0.
	initRef := litmus.InstrRef{Thread: -1, Index: -1}
	source := map[[2]int]litmus.InstrRef{}
	for _, cond := range o.Conds {
		slot, ok := pt.SlotOf(cond.Thread, cond.Reg)
		if !ok {
			continue
		}
		if cond.Value == 0 {
			source[[2]int{cond.Thread, slot}] = initRef
			continue
		}
		loc := pt.LoadLoc[cond.Thread][slot]
		if s := pt.StoreForValue(loc, cond.Value); s != nil {
			source[[2]int{cond.Thread, slot}] = s.Ref
		}
	}

	// Positioned events per thread per location, in program order: own
	// stores (position: themselves) and designated loads (position: their
	// source).
	type event struct {
		src litmus.InstrRef
	}
	edges := map[litmus.InstrRef][]litmus.InstrRef{}
	addEdge := func(a, b litmus.InstrRef) { edges[a] = append(edges[a], b) }
	nodes := map[litmus.InstrRef]bool{}

	for ti, th := range t.Threads {
		byLoc := map[litmus.Loc][]event{}
		slot := 0
		for ii, in := range th.Instrs {
			switch in.Kind {
			case litmus.OpStore:
				ref := litmus.InstrRef{Thread: ti, Index: ii}
				nodes[ref] = true
				byLoc[in.Loc] = append(byLoc[in.Loc], event{src: ref})
			case litmus.OpLoad:
				if src, ok := source[[2]int{ti, slot}]; ok {
					byLoc[in.Loc] = append(byLoc[in.Loc], event{src: src})
					if src != initRef {
						nodes[src] = true
					}
				}
				slot++
			}
		}
		for _, evs := range byLoc {
			for i := 0; i < len(evs); i++ {
				for j := i + 1; j < len(evs); j++ {
					a, b := evs[i].src, evs[j].src
					switch {
					case a == b, a == initRef:
					case b == initRef:
						// A designated store read followed by a read of the
						// initial value: memory never travels back to 0.
						return true
					default:
						addEdge(a, b)
					}
				}
			}
		}
	}

	// Per-thread FIFO drain order among all involved stores.
	var refs []litmus.InstrRef
	for ref := range nodes {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Thread != refs[j].Thread {
			return refs[i].Thread < refs[j].Thread
		}
		return refs[i].Index < refs[j].Index
	})
	for i := 0; i < len(refs); i++ {
		for j := i + 1; j < len(refs); j++ {
			if refs[i].Thread == refs[j].Thread {
				addEdge(refs[i], refs[j])
			}
		}
	}

	// Cycle detection.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[litmus.InstrRef]int{}
	var visit func(n litmus.InstrRef) bool
	visit = func(n litmus.InstrRef) bool {
		color[n] = grey
		for _, next := range edges[n] {
			switch color[next] {
			case grey:
				return true
			case white:
				if visit(next) {
					return true
				}
			}
		}
		color[n] = black
		return false
	}
	for _, ref := range refs {
		if color[ref] == white && visit(ref) {
			return true
		}
	}
	return false
}

// derivePins builds the heuristic substitution plan: starting from the
// anchor (the first load thread), repeatedly pin an unknown variable from
// a constraint whose buf value is already readable, preferring read-from
// pins (exact decode) over from-read pins (tightest bound). Load threads
// that no condition observes fall back to the diagonal. Store-only
// threads left unpinned stay existential; the heuristic evaluates their
// interval like the exhaustive counter does.
func (po *PerpetualOutcome) derivePins(pt *PerpetualTest) {
	if po.Unsatisfiable || len(po.FrameVars) == 0 {
		return
	}
	anchor := po.FrameVars[0]
	known := map[int]bool{anchor: true}

	for {
		progress := false
		// Prefer RF pins: they decode the partner iteration exactly.
		for pass := 0; pass < 2 && !progress; pass++ {
			for ci, c := range po.Constraints {
				if c.Rel == EQZero || known[c.Var] || !known[c.Ref.Thread] {
					continue
				}
				if pass == 0 && c.Rel != RF {
					continue
				}
				kind := PinRF
				if c.Rel == FR {
					kind = PinFR
				}
				po.Pins = append(po.Pins, Pin{Var: c.Var, Kind: kind, Constraint: ci})
				known[c.Var] = true
				progress = true
				break
			}
		}
		if !progress {
			break
		}
	}

	// Diagonal fallback for unobserved load threads (their buf values are
	// needed to evaluate constraints but nothing pins their index).
	for _, v := range po.FrameVars {
		if !known[v] {
			po.Pins = append(po.Pins, Pin{Var: v, Kind: PinDiagonal, Constraint: -1})
			known[v] = true
		}
	}
}

// ConvertAllOutcomes converts every outcome of the test's full outcome
// space, in litmus.Test.AllOutcomes order.
func ConvertAllOutcomes(pt *PerpetualTest) ([]*PerpetualOutcome, error) {
	outs := pt.Orig.AllOutcomes()
	pos := make([]*PerpetualOutcome, len(outs))
	for i, o := range outs {
		po, err := ConvertOutcome(pt, o)
		if err != nil {
			return nil, err
		}
		pos[i] = po
	}
	return pos, nil
}
