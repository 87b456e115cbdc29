package trace

import (
	"fmt"
	"strings"

	"perple/internal/litmus"
	"perple/internal/memmodel"
)

// CycleEdge is one labelled edge of a violation's happens-before cycle.
type CycleEdge struct {
	From memmodel.EventRef `json:"from"`
	To   memmodel.EventRef `json:"to"`
	Rel  string            `json:"rel"`
}

func (e CycleEdge) String() string {
	return fmt.Sprintf("%s -[%s]-> %s", e.From, e.Rel, e.To)
}

// Violation reports one witness the model forbids: a minimal cycle in
// the checked happens-before union, plus the witness itself so the
// report is self-contained. Violations are produced by Checker.Check;
// a nil Violation means the witness is consistent.
type Violation struct {
	Test  *litmus.Test
	Model memmodel.Model
	Axiom string // which of the model's acyclicity axioms failed (memmodel.Axiom.Name)
	Union string // the relation union that axiom requires acyclic
	Iter  int    // run iteration the witness records

	// Cycle is a minimal (shortest, deterministically chosen) cycle in
	// the failed union, in traversal order: each edge's To is the next
	// edge's From, and the last edge closes back to the first.
	Cycle []CycleEdge

	// RF and Co are copies of the offending witness slot, in WitnessSet
	// encoding (dense indices; -1 = init).
	RF []int32
	Co []int32

	l *Layout // the checker's layout, for rendering the witness
}

func (v *Violation) Error() string {
	return fmt.Sprintf("trace: %s iter %d violates %s under %v (%d-edge cycle)",
		v.Test.Name, v.Iter, v.Axiom, v.Model, len(v.Cycle))
}

// Format renders the violation as a human-readable report in the style
// of the sim oracle's Explain / axiom's witness rendering: the failed axiom, the
// minimal cycle edge by edge, and the witness's rf and co relations.
func (v *Violation) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace violation: %s, iteration %d\n", v.Test.Name, v.Iter)
	fmt.Fprintf(&b, "  model %v requires %s acyclic (%s axiom); the witness contains the cycle:\n",
		v.Model, v.Union, v.Axiom)
	for _, e := range v.Cycle {
		fmt.Fprintf(&b, "    %s\n", e)
	}
	l := v.l
	b.WriteString("  witness:\n")
	for k, src := range v.RF {
		fmt.Fprintf(&b, "    rf: %s reads %s", l.LoadRef(int32(k)), l.StoreRef(src))
		if src >= 0 {
			fmt.Fprintf(&b, " (%s=%d)", l.locs[l.storeLoc[src]], l.storeVal[src])
		} else {
			fmt.Fprintf(&b, " ([%s] initial value)", l.locs[l.loadLoc[k]])
		}
		b.WriteByte('\n')
	}
	for li, loc := range l.locs {
		if len(l.storesByLoc[li]) == 0 {
			continue
		}
		fmt.Fprintf(&b, "    co: [%s]: init", loc)
		for _, st := range v.Co {
			if st >= 0 && l.storeLoc[st] == int32(li) {
				fmt.Fprintf(&b, " -> %s", l.StoreRef(st))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
