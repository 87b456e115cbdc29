package axiom

import (
	"fmt"
	"sort"
	"strings"

	"perple/internal/litmus"
	"perple/internal/memmodel"
)

// RFEdge records which store one load read.
type RFEdge struct {
	Load  memmodel.EventRef
	Store memmodel.EventRef // init when the load read the initial value
}

// Witness is one concrete axiom-consistent execution: the reads-from
// assignment of every load, the coherence order of every stored-to
// location, and the final state it produces. It is the artifact the
// differential oracle prints next to a diverging simulator trace, and
// what perple-lint shows to justify a classification.
type Witness struct {
	Test *litmus.Test
	RF   []RFEdge                           // in load (thread, index) order
	WS   map[litmus.Loc][]memmodel.EventRef // coherence order per location (init elided)
	Regs [][]int64
	Mem  map[litmus.Loc]int64
}

// witness materializes the current odometer position as a Witness.
func (a *analysis) witness(idx []int, regs [][]int64, mem map[litmus.Loc]int64) *Witness {
	w := &Witness{
		Test: a.t,
		WS:   make(map[litmus.Loc][]memmodel.EventRef, len(a.permLocs)),
		Regs: regs,
		Mem:  mem,
	}
	for k, lid := range a.loads {
		sid := a.rfCands[k][idx[k]]
		le, se := &a.events[lid], &a.events[sid]
		w.RF = append(w.RF, RFEdge{
			Load:  memmodel.EventRef{Thread: le.thread, Index: le.index},
			Store: memmodel.EventRef{Thread: se.thread, Index: se.index},
		})
	}
	for k, loc := range a.permLocs {
		p := a.permChoice[k]
		refs := make([]memmodel.EventRef, 0, len(p.order))
		for _, sid := range p.order {
			se := &a.events[sid]
			refs = append(refs, memmodel.EventRef{Thread: se.thread, Index: se.index})
		}
		w.WS[loc] = refs
	}
	return w
}

// describe renders an event reference with its instruction text.
func (w *Witness) describe(r memmodel.EventRef) string {
	if r.IsInit() {
		return "init"
	}
	return fmt.Sprintf("%s %s", r, w.Test.Threads[r.Thread].Instrs[r.Index])
}

// Format renders the witness for humans, one relation per line:
//
//	rf: P0#1 r0 <- [y] reads init
//	co: [x]: init -> P1#0 [x] <- 1
//	final: 0:r0=0 && 1:r0=0 | [x]=1 [y]=1
func (w *Witness) Format() string {
	var b strings.Builder
	for i, e := range w.RF {
		if i == 0 {
			b.WriteString("rf: ")
		} else {
			b.WriteString("    ")
		}
		fmt.Fprintf(&b, "%s reads %s\n", w.describe(e.Load), w.describe(e.Store))
	}
	locs := make([]litmus.Loc, 0, len(w.WS))
	for loc := range w.WS {
		locs = append(locs, loc)
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
	for i, loc := range locs {
		if i == 0 {
			b.WriteString("co: ")
		} else {
			b.WriteString("    ")
		}
		parts := []string{"init"}
		for _, ref := range w.WS[loc] {
			parts = append(parts, w.describe(ref))
		}
		fmt.Fprintf(&b, "[%s]: %s\n", loc, strings.Join(parts, " -> "))
	}
	b.WriteString("final: ")
	var regParts []string
	for ti, tr := range w.Regs {
		for r, v := range tr {
			regParts = append(regParts, fmt.Sprintf("%d:r%d=%d", ti, r, v))
		}
	}
	if len(regParts) == 0 {
		regParts = []string{"(no registers)"}
	}
	b.WriteString(strings.Join(regParts, " && "))
	memLocs := make([]litmus.Loc, 0, len(w.Mem))
	for loc := range w.Mem {
		memLocs = append(memLocs, loc)
	}
	sort.Slice(memLocs, func(i, j int) bool { return memLocs[i] < memLocs[j] })
	if len(memLocs) > 0 {
		b.WriteString(" |")
		for _, loc := range memLocs {
			fmt.Fprintf(&b, " [%s]=%d", loc, w.Mem[loc])
		}
	}
	b.WriteString("\n")
	return b.String()
}
