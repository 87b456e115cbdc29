package core

import (
	_ "embed"
	"fmt"
	"sort"
	"strings"

	"perple/internal/litmus"
)

// GeneratedFiles renders the Converter's output artifacts for a perpetual
// test and its outcomes of interest, mirroring Section V-A of the paper:
//
//   - one assembly file per test thread with the perpetual loop body
//     ("<name>_t<i>.s", x86-flavoured);
//   - the exhaustive outcome counter as Go source ("<name>_count.go" —
//     the paper emits C; this suite's host language is Go);
//   - the heuristic outcome counter ("<name>_counth.go");
//   - the parameters file with t_i_reads ("<name>_params.txt").
//
// The returned map is keyed by file name. The Go files are
// self-contained, parseable `package counters` sources.
func GeneratedFiles(pt *PerpetualTest, outcomes []*PerpetualOutcome) map[string]string {
	files := map[string]string{}
	name := sanitizeIdent(pt.Orig.Name)
	for ti := range pt.Orig.Threads {
		files[fmt.Sprintf("%s_t%d.s", name, ti)] = GenerateAsm(pt, ti)
	}
	files[name+"_count.go"] = GenerateCountGo(pt, outcomes, false)
	files[name+"_counth.go"] = GenerateCountGo(pt, outcomes, true)
	files[name+"_params.txt"] = GenerateParams(pt)
	if NeedsHelpers(outcomes) {
		_, body, _ := strings.Cut(helpersGo, "package core\n")
		files[name+"_helpers.go"] = "// Code generated by the PerpLE Converter. DO NOT EDIT.\n\npackage counters\n" + body
	}
	return files
}

// helpersGo is helpers.go, the bound arithmetic the interpreted counters
// run; the emitted helpers file is its text after the package clause.
//
//go:embed helpers.go
var helpersGo string

// GenerateParams renders the t_i_reads parameter file the Harness uses to
// size the buf arrays.
func GenerateParams(pt *PerpetualTest) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# perpetual test %s: loads per iteration per thread\n", pt.Orig.Name)
	for ti, r := range pt.Reads {
		fmt.Fprintf(&b, "t%d_reads %d\n", ti, r)
	}
	return b.String()
}

// GenerateAsm renders thread ti's perpetual loop body in x86-flavoured
// assembly. Register conventions: R15 holds the iteration index n, RCX
// the iteration count N, RDI the thread's buf base (load threads only);
// RAX is the store-value scratch and RBX/RDX/... hold loaded values until
// the end-of-iteration buf spill.
func GenerateAsm(pt *PerpetualTest, ti int) string {
	t := pt.Orig
	var b strings.Builder
	fmt.Fprintf(&b, "; perpetual litmus test %s, thread %d\n", t.Name, ti)
	fmt.Fprintf(&b, "; R15 = iteration index n, RCX = N")
	if pt.Reads[ti] > 0 {
		fmt.Fprintf(&b, ", RDI = buf%d base", ti)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "thread%d_start:\n", ti)
	fmt.Fprintf(&b, "    XOR   R15, R15\n")
	fmt.Fprintf(&b, "thread%d_loop:\n", ti)

	loadRegs := []string{"RBX", "RDX", "RSI", "R8", "R9", "R10", "R11"}
	slot := 0
	for _, in := range t.Threads[ti].Instrs {
		switch in.Kind {
		case litmus.OpStore:
			s := pt.StoreForValue(in.Loc, in.Value)
			fmt.Fprintf(&b, "    MOV   RAX, R15\n")
			if s.K != 1 {
				fmt.Fprintf(&b, "    IMUL  RAX, %d\n", s.K)
			}
			fmt.Fprintf(&b, "    ADD   RAX, %d\n", s.A)
			fmt.Fprintf(&b, "    MOV   [%s], RAX        ; [%s] <- %d*n + %d\n", in.Loc, in.Loc, s.K, s.A)
		case litmus.OpLoad:
			reg := loadRegs[slot%len(loadRegs)]
			fmt.Fprintf(&b, "    MOV   %s, [%s]        ; load slot %d\n", reg, in.Loc, slot)
			slot++
		case litmus.OpFence:
			fmt.Fprintf(&b, "    MFENCE\n")
		}
	}
	// End of iteration: spill loads into buf[reads*n + i].
	if pt.Reads[ti] > 0 {
		fmt.Fprintf(&b, "    MOV   RAX, R15\n")
		if pt.Reads[ti] != 1 {
			fmt.Fprintf(&b, "    IMUL  RAX, %d\n", pt.Reads[ti])
		}
		for i := 0; i < pt.Reads[ti]; i++ {
			reg := loadRegs[i%len(loadRegs)]
			fmt.Fprintf(&b, "    MOV   [RDI + 8*RAX + %d], %s   ; buf%d[%d*n + %d]\n",
				8*i, reg, ti, pt.Reads[ti], i)
		}
	}
	fmt.Fprintf(&b, "    INC   R15\n")
	fmt.Fprintf(&b, "    CMP   R15, RCX\n")
	fmt.Fprintf(&b, "    JL    thread%d_loop\n", ti)
	fmt.Fprintf(&b, "    RET\n")
	return b.String()
}

// GenerateCountGo renders the specialized COUNT (Algorithm 1) or COUNTH
// (Algorithm 2) function for the outcomes of interest as a compilable Go
// source file.
func GenerateCountGo(pt *PerpetualTest, outcomes []*PerpetualOutcome, heuristic bool) string {
	var b strings.Builder
	fn := "Count"
	algo := "exhaustive outcome counter (Algorithm 1)"
	if heuristic {
		fn = "CountH"
		algo = "heuristic outcome counter (Algorithm 2)"
	}
	fmt.Fprintf(&b, "// Code generated by the PerpLE Converter for litmus test %q. DO NOT EDIT.\n", pt.Orig.Name)
	fmt.Fprintf(&b, "//\n// %s over %d outcome(s) of interest.\n", algo, len(outcomes))
	b.WriteString("\npackage counters\n\n")

	// Signature: one buf slice per load thread.
	params := []string{"n int64"}
	for _, t := range pt.LoadThreads {
		params = append(params, fmt.Sprintf("buf%d []int64", t))
	}
	fmt.Fprintf(&b, "func %s(%s) []int64 {\n", fn, strings.Join(params, ", "))
	fmt.Fprintf(&b, "\tcounts := make([]int64, %d)\n", len(outcomes))

	indent := "\t"
	if heuristic {
		anchor := pt.LoadThreads[0]
		fmt.Fprintf(&b, "\tfor n%d := int64(0); n%d < n; n%d++ {\n", anchor, anchor, anchor)
		indent = "\t\t"
	} else {
		for _, t := range pt.LoadThreads {
			fmt.Fprintf(&b, "%sfor n%d := int64(0); n%d < n; n%d++ {\n", indent, t, t, t)
			indent += "\t"
		}
	}

	b.WriteString(indent + "switch {\n")
	for oi, po := range outcomes {
		cond := genOutcomeExpr(pt, po, heuristic, indent)
		fmt.Fprintf(&b, "%scase %s:\n%s\tcounts[%d]++\n", indent, cond, indent, oi)
	}
	b.WriteString(indent + "}\n")

	if heuristic {
		b.WriteString("\t}\n")
	} else {
		for range pt.LoadThreads {
			indent = indent[:len(indent)-1]
			b.WriteString(indent + "}\n")
		}
	}
	b.WriteString("\treturn counts\n}\n")
	return b.String()
}

// genOutcomeExpr renders one p_out (or p_out_h) as a Go boolean
// expression, using an immediately-invoked closure when pins or
// existential intervals require statements.
func genOutcomeExpr(pt *PerpetualTest, po *PerpetualOutcome, heuristic bool, indent string) string {
	if po.Unsatisfiable {
		return "false /* outcome expects a value never stored */"
	}
	anchor := pt.LoadThreads[0]

	bufExpr := func(ref BufRef, idx string) string {
		if pt.Reads[ref.Thread] == 1 && ref.Slot == 0 {
			return fmt.Sprintf("buf%d[%s]", ref.Thread, idx)
		}
		return fmt.Sprintf("buf%d[%d*%s+%d]", ref.Thread, pt.Reads[ref.Thread], idx, ref.Slot)
	}
	// rhs renders the single-sequence inequality bound: K·m + A for rf,
	// K·m + A − 1 for fr (only used when K == 1, where it is exact).
	rhs := func(c Constraint, idx string) string {
		cc := c.A
		if c.Rel == FR {
			cc = c.A - 1
		}
		expr := idx
		if c.K != 1 {
			expr = fmt.Sprintf("%d*%s", c.K, idx)
		}
		if cc > 0 {
			expr += fmt.Sprintf("+%d", cc)
		} else if cc < 0 {
			expr += fmt.Sprintf("-%d", -cc)
		}
		return expr
	}
	seqLit := func(xs []int) string {
		parts := make([]string, len(xs))
		for i, v := range xs {
			parts[i] = fmt.Sprintf("%d", v)
		}
		return "[]int{" + strings.Join(parts, ", ") + "}"
	}

	// Variables known directly (frame vars in exhaustive mode; anchor in
	// heuristic mode). Everything else is pinned (heuristic) or
	// existential.
	known := map[int]string{}
	if heuristic {
		known[anchor] = fmt.Sprintf("n%d", anchor)
	} else {
		for _, t := range pt.LoadThreads {
			known[t] = fmt.Sprintf("n%d", t)
		}
	}

	multiSeq := false
	for _, c := range po.Constraints {
		if c.Rel != EQZero && c.K > 1 {
			multiSeq = true
		}
	}
	needsClosure := heuristic && len(po.Pins) > 0 || len(po.ExistVars) > 0 || multiSeq
	if !needsClosure {
		var conj []string
		for _, c := range po.Constraints {
			conj = append(conj, genSimpleConstraint(c, bufExpr(c.Ref, known[c.Ref.Thread]), rhs(c, known[c.Var])))
		}
		if len(conj) == 0 {
			return "true"
		}
		return strings.Join(conj, " &&\n"+indent+"\t")
	}

	// Closure form with pins and/or existential intervals.
	var body strings.Builder
	inner := indent + "\t"
	pinned := map[int]bool{}
	if heuristic {
		for _, p := range po.Pins {
			v := fmt.Sprintf("m%d", p.Var)
			switch p.Kind {
			case PinDiagonal:
				fmt.Fprintf(&body, "%s%s := n%d // diagonal fallback\n", inner, v, anchor)
			case PinRF:
				c := po.Constraints[p.Constraint]
				x := bufExpr(c.Ref, known[c.Ref.Thread])
				if c.K == 1 {
					fmt.Fprintf(&body, "%sif %s < %d {\n%s\treturn false\n%s}\n", inner, x, c.A, inner, inner)
					fmt.Fprintf(&body, "%s%s := %s - %d // rf pin\n", inner, v, x, c.A)
				} else {
					fmt.Fprintf(&body, "%s%s, ok%d := rfBound(%s, %d, %d, %d, %s, %s) // rf pin\n",
						inner, v, p.Var, x, c.K, c.Var, c.StoreIdx, seqLit(c.SeqThread), seqLit(c.SeqIdx))
					fmt.Fprintf(&body, "%sif !ok%d {\n%s\treturn false\n%s}\n", inner, p.Var, inner, inner)
				}
			case PinFR:
				c := po.Constraints[p.Constraint]
				x := bufExpr(c.Ref, known[c.Ref.Thread])
				if c.K == 1 {
					fmt.Fprintf(&body, "%s%s := %s // fr pin (tightest)\n", inner, v, x)
				} else {
					fmt.Fprintf(&body, "%s%s, ok%d := frBound(%s, %d, %d, %d, %d, %s, %s) // fr pin\n",
						inner, v, p.Var, x, c.K, c.A, c.Var, c.StoreIdx, seqLit(c.SeqThread), seqLit(c.SeqIdx))
					fmt.Fprintf(&body, "%sif !ok%d {\n%s\treturn false\n%s}\n", inner, p.Var, inner, inner)
				}
			}
			fmt.Fprintf(&body, "%sif %s < 0 || %s >= n {\n%s\treturn false\n%s}\n", inner, v, v, inner, inner)
			known[p.Var] = v
			pinned[p.Var] = true
		}
	}
	// Existential intervals for unpinned store-only threads.
	for _, ev := range po.ExistVars {
		if pinned[ev] {
			continue
		}
		fmt.Fprintf(&body, "%slo%d, hi%d := int64(0), n-1\n", inner, ev, ev)
	}
	for ci, c := range po.Constraints {
		x := bufExpr(c.Ref, known[c.Ref.Thread])
		knownVar, isKnown := known[c.Var]
		if c.Rel == EQZero {
			fmt.Fprintf(&body, "%sif %s != 0 {\n%s\treturn false\n%s}\n", inner, x, inner, inner)
			continue
		}
		if c.K == 1 {
			if isKnown {
				fmt.Fprintf(&body, "%sif !(%s) {\n%s\treturn false\n%s}\n",
					inner, genSimpleConstraint(c, x, rhs(c, knownVar)), inner, inner)
			} else if c.Rel == RF {
				fmt.Fprintf(&body, "%sif b := floorDiv(%s-%d, %d); b < hi%d {\n%s\thi%d = b\n%s}\n",
					inner, x, c.A, c.K, c.Var, inner, c.Var, inner)
			} else {
				fmt.Fprintf(&body, "%sif b := ceilDiv(%s-%d, %d); b > lo%d {\n%s\tlo%d = b\n%s}\n",
					inner, x, c.A-1, c.K, c.Var, inner, c.Var, inner)
			}
			continue
		}
		// Multi-sequence location: decode through the helpers.
		if c.Rel == FR {
			fmt.Fprintf(&body, "%sb%d, okb%d := frBound(%s, %d, %d, %d, %d, %s, %s)\n",
				inner, ci, ci, x, c.K, c.A, c.Var, c.StoreIdx, seqLit(c.SeqThread), seqLit(c.SeqIdx))
		} else {
			fmt.Fprintf(&body, "%sb%d, okb%d := rfBound(%s, %d, %d, %d, %s, %s)\n",
				inner, ci, ci, x, c.K, c.Var, c.StoreIdx, seqLit(c.SeqThread), seqLit(c.SeqIdx))
		}
		cmp := ">"
		if c.Rel == FR {
			cmp = "<"
		}
		fmt.Fprintf(&body, "%sif !okb%d {\n%s\treturn false\n%s}\n", inner, ci, inner, inner)
		if isKnown {
			fmt.Fprintf(&body, "%sif %s %s b%d {\n%s\treturn false\n%s}\n", inner, knownVar, cmp, ci, inner, inner)
		} else if c.Rel == RF {
			fmt.Fprintf(&body, "%sif b%d < hi%d {\n%s\thi%d = b%d\n%s}\n", inner, ci, c.Var, inner, c.Var, ci, inner)
		} else {
			fmt.Fprintf(&body, "%sif b%d > lo%d {\n%s\tlo%d = b%d\n%s}\n", inner, ci, c.Var, inner, c.Var, ci, inner)
		}
	}
	for _, ev := range po.ExistVars {
		if pinned[ev] {
			continue
		}
		fmt.Fprintf(&body, "%sif lo%d > hi%d {\n%s\treturn false\n%s}\n", inner, ev, ev, inner, inner)
	}
	body.WriteString(inner + "return true\n")
	return fmt.Sprintf("func() bool {\n%s%s}()", body.String(), indent)
}

func genSimpleConstraint(c Constraint, lhs, rhs string) string {
	switch c.Rel {
	case EQZero:
		return lhs + " == 0"
	case RF:
		return lhs + " >= " + rhs
	default:
		return lhs + " <= " + rhs
	}
}

func sanitizeIdent(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	return b.String()
}

// NeedsHelpers reports whether the generated source for these outcomes
// references the floorDiv/ceilDiv or rfBound/frBound helpers.
func NeedsHelpers(outcomes []*PerpetualOutcome) bool {
	for _, po := range outcomes {
		if len(po.ExistVars) > 0 {
			return true
		}
		for _, c := range po.Constraints {
			if c.Rel != EQZero && c.K > 1 {
				return true
			}
		}
	}
	return false
}

// SortedFileNames returns the keys of a GeneratedFiles map in stable
// order, for deterministic CLI output.
func SortedFileNames(files map[string]string) []string {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
