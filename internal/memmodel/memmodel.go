// Package memmodel defines the memory consistency models (SC, x86-TSO,
// SPARC PSO) once, as data, in the style of herd's cat files ("Herding
// Cats", Alglave, Maranget, Tautschnig): a model is the set of
// same-thread program-order pairs it keeps (KeepsPO) plus a list of
// acyclicity axioms (Axioms).
//
// An execution of a litmus test fixes reads-from (rf: the store each
// load reads, or the initial value) and coherence (co: a total order
// of each location's stores); from-read (fr) is derived — a load
// precedes every store co-after the one it read. The execution is
// consistent with a model iff, for each of the model's axioms, the
// union of the axiom's po scope, its rf scope, co and fr is acyclic:
//
//	SC:   sc         po ∪ rf ∪ co ∪ fr
//	TSO:  coherence  po-loc ∪ rf ∪ co ∪ fr
//	      tso-ghb    ppo ∪ mfence ∪ rfe ∪ co ∪ fr
//	PSO:  coherence  po-loc ∪ rf ∪ co ∪ fr
//	      pso-ghb    ppo ∪ mfence ∪ rfe ∪ co ∪ fr
//
// po-loc is program order restricted to same-location accesses. ppo is
// the pairs the model keeps: x86-TSO drops store→load (the FIFO store
// buffer), PSO also drops store→store to different locations
// (per-location buffers), and an MFENCE between the pair restores it
// (mfence). rfe keeps only cross-thread rf: a same-thread rf is
// store-to-load forwarding and does not prove the store reached memory.
//
// internal/axiom enumerates candidate executions against this
// definition and internal/trace checks recorded ones against it.
// operational.go is the independent reference that reads none of it: an
// explicit store-buffer machine that enumerates every reachable final
// state by brute-force interleaving. It plays the role the herd
// simulator plays in the PerpLE paper only as a cross-check — axiom's
// result sets must equal this machine's, and everything the simulated
// machine in internal/sim produces must be allowed here.
package memmodel

import (
	"fmt"

	"perple/internal/litmus"
)

// Model selects a memory consistency model.
type Model int

const (
	// SC is Lamport sequential consistency: a single interleaving of all
	// threads' operations in program order.
	SC Model = iota
	// TSO is total store ordering as implemented by x86 processors:
	// per-thread FIFO store buffers with store-to-load forwarding and a
	// single global order of stores.
	TSO
	// PSO is SPARC partial store ordering: per-thread, per-location store
	// buffers, so stores to different locations may drain out of program
	// order (W→W relaxed) in addition to TSO's W→R relaxation. Used by
	// the fault-injection experiment: a machine claiming TSO but
	// implementing PSO is a conformance bug PerpLE must catch.
	PSO
)

// Models lists the supported models from strongest to weakest.
var Models = []Model{SC, TSO, PSO}

func (m Model) String() string {
	switch m {
	case SC:
		return "SC"
	case TSO:
		return "TSO"
	case PSO:
		return "PSO"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// POScope is the program-order part of an axiom.
type POScope uint8

const (
	POLoc POScope = iota // po restricted to same-location loads and stores
	PO                   // full program order
	PPO                  // the pairs the model keeps (KeepsPO)
)

func (s POScope) String() string { return [...]string{"po-loc", "po", "ppo"}[s] }

// RFScope is the reads-from part of an axiom.
type RFScope uint8

const (
	RF  RFScope = iota // every reads-from edge
	RFE                // cross-thread reads-from edges only
)

func (s RFScope) String() string { return [...]string{"rf", "rfe"}[s] }

// Axiom requires the union of PO-scoped program order, RF-scoped
// reads-from, co and fr to be acyclic.
type Axiom struct {
	Name string
	PO   POScope
	RF   RFScope
}

// Union renders the relation union the axiom requires acyclic.
func (a Axiom) Union() string {
	po := a.PO.String()
	if a.PO == PPO {
		po += " ∪ mfence"
	}
	return po + " ∪ " + a.RF.String() + " ∪ co ∪ fr"
}

// poPair is a same-thread program-order pair a model drops unless an
// MFENCE lies between: a from-kind access followed by a to-kind one,
// optionally only when the two locations differ.
type poPair struct {
	from, to litmus.OpKind
	diffLoc  bool
}

var coherence = Axiom{Name: "coherence", PO: POLoc, RF: RF}

// definitions holds each model as data, indexed by Model.
var definitions = [...]struct {
	relaxed []poPair
	axioms  []Axiom
}{
	SC: {axioms: []Axiom{{Name: "sc", PO: PO, RF: RF}}},
	TSO: {
		relaxed: []poPair{{litmus.OpStore, litmus.OpLoad, false}},
		axioms:  []Axiom{coherence, {Name: "tso-ghb", PO: PPO, RF: RFE}},
	},
	PSO: {
		relaxed: []poPair{{litmus.OpStore, litmus.OpLoad, false}, {litmus.OpStore, litmus.OpStore, true}},
		axioms:  []Axiom{coherence, {Name: "pso-ghb", PO: PPO, RF: RFE}},
	},
}

// Axioms returns the model's acyclicity axioms, or nil for a value that
// names no model.
func (m Model) Axioms() []Axiom {
	if m < 0 || int(m) >= len(definitions) {
		return nil
	}
	return definitions[m].axioms
}

// KeepsPO reports whether model m keeps the program-order pair from→to
// (same thread, from first) in ppo; fenced says an MFENCE lies strictly
// between them. A fenced pair is always kept, and so is every pair with
// a fence at either end: an MFENCE is ordered with every access of its
// thread.
func (m Model) KeepsPO(from, to litmus.Instr, fenced bool) bool {
	if fenced {
		return true
	}
	for _, p := range definitions[m].relaxed {
		if from.Kind == p.from && to.Kind == p.to && !(p.diffLoc && from.Loc == to.Loc) {
			return false
		}
	}
	return true
}

// Ordered calls keep(i, j) for every pair i < j of one thread's
// instructions that scope s of model m orders. po-loc relates loads and
// stores of the same location; po relates every pair, fences included;
// ppo relates the pairs KeepsPO keeps.
func (m Model) Ordered(s POScope, instrs []litmus.Instr, keep func(i, j int)) {
	for i, from := range instrs {
		fenced := false
		for j := i + 1; j < len(instrs); j++ {
			to := instrs[j]
			var ok bool
			switch s {
			case POLoc:
				ok = from.Kind != litmus.OpFence && to.Kind != litmus.OpFence && from.Loc == to.Loc
			case PO:
				ok = true
			default:
				ok = m.KeepsPO(from, to, fenced)
			}
			if ok {
				keep(i, j)
			}
			fenced = fenced || to.Kind == litmus.OpFence
		}
	}
}

// EventRef names a memory event by (thread, instruction index); the
// init pseudo-store is Thread -1.
type EventRef struct {
	Thread int
	Index  int
}

// IsInit reports whether the reference is the init pseudo-store.
func (r EventRef) IsInit() bool { return r.Thread < 0 }

func (r EventRef) String() string {
	if r.IsInit() {
		return "init"
	}
	return fmt.Sprintf("P%d#%d", r.Thread, r.Index)
}
