// Package litmus defines the vocabulary of memory-consistency litmus
// testing: shared locations, per-thread register files, the three
// instruction kinds (store, load, fence), whole tests, and test outcomes.
//
// A litmus test is a tiny multi-threaded program plus a set of outcomes,
// each outcome a conjunction of final register-value conditions. The
// package also carries the perpetual litmus suite of Table II of the
// PerpLE paper (see suite.go), a parser and printer for a litmus7-style
// text format (parse.go, print.go), and a randomized test generator used
// by property tests (generate.go).
package litmus

import (
	"fmt"
	"sort"
	"strings"
)

// Loc names a shared memory location, e.g. "x".
type Loc string

// OpKind discriminates the instruction kinds a litmus test may contain.
type OpKind int

const (
	// OpStore writes an immediate positive constant to a shared location.
	OpStore OpKind = iota
	// OpLoad reads a shared location into a per-thread register.
	OpLoad
	// OpFence is a full memory fence (x86 MFENCE): it drains the store
	// buffer before any later memory operation executes.
	OpFence
)

func (k OpKind) String() string {
	switch k {
	case OpStore:
		return "store"
	case OpLoad:
		return "load"
	case OpFence:
		return "fence"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Instr is one instruction of a litmus test thread.
//
// The zero value is not a valid instruction; construct instructions with
// Store, Load and Fence.
type Instr struct {
	Kind OpKind
	// Loc is the shared location accessed by stores and loads.
	Loc Loc
	// Value is the immediate stored by OpStore. It must be positive: 0 is
	// reserved for the initial value of every location.
	Value int64
	// Reg is the destination register index (within the thread) of OpLoad.
	Reg int
}

// Store returns a store instruction writing value v to location loc.
func Store(loc Loc, v int64) Instr { return Instr{Kind: OpStore, Loc: loc, Value: v} }

// Load returns a load instruction reading location loc into register r.
func Load(r int, loc Loc) Instr { return Instr{Kind: OpLoad, Loc: loc, Reg: r} }

// Fence returns a full memory fence instruction.
func Fence() Instr { return Instr{Kind: OpFence} }

func (in Instr) String() string {
	switch in.Kind {
	case OpStore:
		return fmt.Sprintf("[%s] <- %d", in.Loc, in.Value)
	case OpLoad:
		return fmt.Sprintf("r%d <- [%s]", in.Reg, in.Loc)
	case OpFence:
		return "mfence"
	default:
		return "invalid"
	}
}

// Thread is the program of a single test thread.
type Thread struct {
	Instrs []Instr
}

// Loads returns the number of load instructions in the thread (r_t in the
// paper: the number of registers the thread fills per iteration).
func (t Thread) Loads() int {
	n := 0
	for _, in := range t.Instrs {
		if in.Kind == OpLoad {
			n++
		}
	}
	return n
}

// Cond is a single outcome condition. There are two forms:
//
//   - register condition (Loc == ""): register Reg of thread Thread holds
//     Value at the end of an iteration;
//   - memory condition (Loc != ""): shared location Loc holds Value at the
//     end of an iteration. Thread and Reg are ignored.
//
// Memory conditions require inspecting shared memory after every
// iteration, which perpetual litmus tests cannot do (Section V-C of the
// paper); outcomes containing them are not convertible and the
// corresponding tests run only under the litmus7-style harness.
type Cond struct {
	Thread int
	Reg    int
	Value  int64
	Loc    Loc
}

// IsMem reports whether the condition constrains final shared memory
// rather than a register.
func (c Cond) IsMem() bool { return c.Loc != "" }

func (c Cond) String() string {
	if c.IsMem() {
		return fmt.Sprintf("[%s]=%d", c.Loc, c.Value)
	}
	return fmt.Sprintf("%d:r%d=%d", c.Thread, c.Reg, c.Value)
}

// Outcome is a conjunction of conditions over final register values.
type Outcome struct {
	Conds []Cond
}

func (o Outcome) String() string {
	parts := make([]string, len(o.Conds))
	for i, c := range o.Conds {
		parts[i] = c.String()
	}
	return strings.Join(parts, " && ")
}

// Key returns a canonical string usable as a map key: conditions sorted by
// (thread, reg).
func (o Outcome) Key() string {
	conds := append([]Cond(nil), o.Conds...)
	sort.Slice(conds, func(i, j int) bool {
		if conds[i].Loc != conds[j].Loc {
			return conds[i].Loc < conds[j].Loc
		}
		if conds[i].Thread != conds[j].Thread {
			return conds[i].Thread < conds[j].Thread
		}
		return conds[i].Reg < conds[j].Reg
	})
	parts := make([]string, len(conds))
	for i, c := range conds {
		parts[i] = c.String()
	}
	return strings.Join(parts, ";")
}

// Equal reports whether two outcomes have the same condition set.
func (o Outcome) Equal(p Outcome) bool { return o.Key() == p.Key() }

// Test is a complete litmus test: a name, the thread programs, initial
// values for shared locations (locations absent from Init start at 0), and
// a designated target outcome (the most informative outcome; for the tests
// of the perpetual suite, the outcome that distinguishes TSO from SC or
// that the model forbids).
type Test struct {
	Name    string
	Doc     string // one-line description
	Threads []Thread
	Init    map[Loc]int64
	Target  Outcome
}

// T returns the number of threads.
func (t *Test) T() int { return len(t.Threads) }

// TL returns the number of load-performing threads (T_L in the paper).
func (t *Test) TL() int { return len(t.LoadThreads()) }

// LoadThreads returns the indices of threads that perform at least one
// load, in increasing order.
func (t *Test) LoadThreads() []int {
	var ids []int
	for i, th := range t.Threads {
		if th.Loads() > 0 {
			ids = append(ids, i)
		}
	}
	return ids
}

// Locs returns every shared location referenced by the test, sorted.
func (t *Test) Locs() []Loc {
	seen := map[Loc]bool{}
	for l := range t.Init {
		seen[l] = true
	}
	for _, th := range t.Threads {
		for _, in := range th.Instrs {
			if in.Kind == OpStore || in.Kind == OpLoad {
				seen[in.Loc] = true
			}
		}
	}
	locs := make([]Loc, 0, len(seen))
	for l := range seen {
		locs = append(locs, l)
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
	return locs
}

// Regs returns, per thread, the number of registers used (1 + max register
// index of its loads, or 0 for store-only threads).
func (t *Test) Regs() []int {
	regs := make([]int, len(t.Threads))
	for i, th := range t.Threads {
		for _, in := range th.Instrs {
			if in.Kind == OpLoad && in.Reg+1 > regs[i] {
				regs[i] = in.Reg + 1
			}
		}
	}
	return regs
}

// InstrRef identifies an instruction by thread and index within the thread.
type InstrRef struct {
	Thread int
	Index  int
}

func (r InstrRef) String() string { return fmt.Sprintf("i%d%d", r.Thread, r.Index) }

// StoreValues returns the distinct values stored to loc across all
// threads, sorted ascending. len(StoreValues(loc)) is k_mem in the paper.
func (t *Test) StoreValues(loc Loc) []int64 {
	seen := map[int64]bool{}
	for _, th := range t.Threads {
		for _, in := range th.Instrs {
			if in.Kind == OpStore && in.Loc == loc {
				seen[in.Value] = true
			}
		}
	}
	vals := make([]int64, 0, len(seen))
	for v := range seen {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

// ValidationError is a structural validation failure that carries the
// position of the offending construct: Thread/Instr point at an
// instruction, Cond at an index into the target's condition list. Absent
// coordinates are -1. Parse augments the position with the source line of
// the construct, so file-level tooling (perple lint) reports exact
// locations instead of silently accepting malformed tests.
type ValidationError struct {
	Test   string
	Thread int
	Instr  int
	Cond   int
	Msg    string
}

func (e *ValidationError) Error() string {
	pos := ""
	switch {
	case e.Thread >= 0 && e.Instr >= 0:
		pos = fmt.Sprintf("thread %d instr %d: ", e.Thread, e.Instr)
	case e.Thread >= 0:
		pos = fmt.Sprintf("thread %d: ", e.Thread)
	case e.Cond >= 0:
		pos = fmt.Sprintf("condition %d: ", e.Cond)
	}
	return fmt.Sprintf("litmus: %s: %s%s", e.Test, pos, e.Msg)
}

func (t *Test) verr(thread, instr, cond int, format string, args ...any) error {
	return &ValidationError{Test: t.Name, Thread: thread, Instr: instr, Cond: cond,
		Msg: fmt.Sprintf(format, args...)}
}

// Validate checks structural well-formedness: at least one thread, positive
// store values, loads with non-negative registers that each register is
// written at most once per thread, no two stores of the same value to the
// same location (required for value uniqueness), and a target outcome
// whose conditions reference existing load registers and referenced
// locations. Failures are *ValidationError values carrying the offending
// thread/instruction/condition position.
func (t *Test) Validate() error {
	if t.Name == "" {
		return &ValidationError{Test: "?", Thread: -1, Instr: -1, Cond: -1, Msg: "test has no name"}
	}
	if len(t.Threads) == 0 {
		return t.verr(-1, -1, -1, "test has no threads")
	}
	type locVal struct {
		loc Loc
		v   int64
	}
	storeSeen := map[locVal]bool{}
	for ti, th := range t.Threads {
		if len(th.Instrs) == 0 {
			return t.verr(ti, -1, -1, "thread is empty")
		}
		regSeen := map[int]bool{}
		for ii, in := range th.Instrs {
			switch in.Kind {
			case OpStore:
				if in.Value <= 0 {
					return t.verr(ti, ii, -1, "stores non-positive value %d", in.Value)
				}
				if in.Loc == "" {
					return t.verr(ti, ii, -1, "stores to empty location")
				}
				key := locVal{in.Loc, in.Value}
				if storeSeen[key] {
					return t.verr(ti, ii, -1, "duplicate store of %d to [%s]; store values must be unique per location", in.Value, in.Loc)
				}
				storeSeen[key] = true
			case OpLoad:
				if in.Reg < 0 {
					return t.verr(ti, ii, -1, "loads into negative register")
				}
				if in.Loc == "" {
					return t.verr(ti, ii, -1, "loads from empty location")
				}
				if regSeen[in.Reg] {
					return t.verr(ti, ii, -1, "duplicate register write: r%d is loaded twice in this thread", in.Reg)
				}
				regSeen[in.Reg] = true
			case OpFence:
			default:
				return t.verr(ti, ii, -1, "invalid instruction kind %d", in.Kind)
			}
		}
	}
	regs := t.Regs()
	if err := t.validateOutcome(t.Target, regs); err != nil {
		return err
	}
	return nil
}

func (t *Test) validateOutcome(o Outcome, regs []int) error {
	if len(o.Conds) == 0 {
		return t.verr(-1, -1, -1, "outcome has no conditions")
	}
	locs := map[Loc]bool{}
	for _, l := range t.Locs() {
		locs[l] = true
	}
	seen := map[[2]int]bool{}
	memSeen := map[Loc]bool{}
	for ci, c := range o.Conds {
		if c.IsMem() {
			if !locs[c.Loc] {
				return t.verr(-1, -1, ci, "outcome references undefined location [%s]", c.Loc)
			}
			if memSeen[c.Loc] {
				return t.verr(-1, -1, ci, "outcome constrains [%s] twice", c.Loc)
			}
			memSeen[c.Loc] = true
			continue
		}
		if c.Thread < 0 || c.Thread >= len(t.Threads) {
			return t.verr(-1, -1, ci, "outcome condition references thread %d of %d", c.Thread, len(t.Threads))
		}
		if c.Reg < 0 || c.Reg >= regs[c.Thread] {
			return t.verr(-1, -1, ci, "outcome condition references r%d of thread %d (has %d registers)", c.Reg, c.Thread, regs[c.Thread])
		}
		key := [2]int{c.Thread, c.Reg}
		if seen[key] {
			return t.verr(-1, -1, ci, "outcome constrains %d:r%d twice", c.Thread, c.Reg)
		}
		seen[key] = true
	}
	return nil
}

// AllOutcomes enumerates the full outcome space of the test: the cartesian
// product over every load register of {0} ∪ {values stored to the loaded
// location}. Register values are taken per loaded location; a register
// loaded from x can hold 0 or any value some thread stores to x.
//
// For sb this yields the four outcomes of Section II-B1 of the paper.
// The enumeration order is deterministic: registers in (thread, reg)
// order, values ascending.
func (t *Test) AllOutcomes() []Outcome {
	type slot struct {
		thread, reg int
		vals        []int64
	}
	var slots []slot
	for ti, th := range t.Threads {
		// One slot per register, using the location of the *last* load into
		// that register in program order (its final value).
		lastLoc := map[int]Loc{}
		var order []int
		for _, in := range th.Instrs {
			if in.Kind == OpLoad {
				if _, ok := lastLoc[in.Reg]; !ok {
					order = append(order, in.Reg)
				}
				lastLoc[in.Reg] = in.Loc
			}
		}
		sort.Ints(order)
		for _, r := range order {
			vals := append([]int64{0}, t.StoreValues(lastLoc[r])...)
			slots = append(slots, slot{thread: ti, reg: r, vals: vals})
		}
	}
	if len(slots) == 0 {
		return nil
	}
	var out []Outcome
	idx := make([]int, len(slots))
	for {
		conds := make([]Cond, len(slots))
		for i, s := range slots {
			conds[i] = Cond{Thread: s.thread, Reg: s.reg, Value: s.vals[idx[i]]}
		}
		out = append(out, Outcome{Conds: conds})
		// Odometer increment.
		i := len(slots) - 1
		for i >= 0 {
			idx[i]++
			if idx[i] < len(slots[i].vals) {
				break
			}
			idx[i] = 0
			i--
		}
		if i < 0 {
			return out
		}
	}
}

// Holds reports whether outcome o is satisfied by the final register file
// regs[thread][reg]. Memory conditions in o make it return false; use
// HoldsFull when final memory is available.
func (o Outcome) Holds(regs [][]int64) bool {
	return o.HoldsFull(regs, nil)
}

// HoldsFull reports whether outcome o is satisfied by the final register
// file regs[thread][reg] and the final shared memory mem. A nil mem
// treats every location as holding its zero value only if o has no memory
// conditions; otherwise the outcome does not hold.
func (o Outcome) HoldsFull(regs [][]int64, mem map[Loc]int64) bool {
	for _, c := range o.Conds {
		if c.IsMem() {
			if mem == nil {
				return false
			}
			if mem[c.Loc] != c.Value {
				return false
			}
			continue
		}
		if c.Thread >= len(regs) || c.Reg >= len(regs[c.Thread]) {
			return false
		}
		if regs[c.Thread][c.Reg] != c.Value {
			return false
		}
	}
	return true
}

// HasMemConds reports whether the outcome contains any final-memory
// condition (making it non-convertible to a perpetual outcome).
func (o Outcome) HasMemConds() bool {
	for _, c := range o.Conds {
		if c.IsMem() {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the test.
func (t *Test) Clone() *Test {
	nt := &Test{Name: t.Name, Doc: t.Doc}
	nt.Threads = make([]Thread, len(t.Threads))
	for i, th := range t.Threads {
		nt.Threads[i] = Thread{Instrs: append([]Instr(nil), th.Instrs...)}
	}
	if t.Init != nil {
		nt.Init = make(map[Loc]int64, len(t.Init))
		for l, v := range t.Init {
			nt.Init[l] = v
		}
	}
	nt.Target = Outcome{Conds: append([]Cond(nil), t.Target.Conds...)}
	return nt
}
