package litmus

import "fmt"

// WithFences returns a copy of the test with an MFENCE inserted between
// every pair of consecutive memory accesses in every thread (existing
// fences are kept, not duplicated). Fencing every pair restores
// sequential consistency on TSO-class machines, which makes the
// transformation useful both as a tooling feature (litmus suites ship
// "+mfences" variants) and as a test oracle: the fully fenced test's
// outcome set under a weak model must equal the original's under SC.
func WithFences(t *Test) *Test {
	out := t.Clone()
	out.Name = t.Name + "+mfences"
	if t.Doc != "" {
		out.Doc = t.Doc + " (fully fenced)"
	}
	for ti := range out.Threads {
		var instrs []Instr
		lastWasAccess := false
		for _, in := range out.Threads[ti].Instrs {
			if in.Kind == OpFence {
				instrs = append(instrs, in)
				lastWasAccess = false
				continue
			}
			if lastWasAccess {
				instrs = append(instrs, Fence())
			}
			instrs = append(instrs, in)
			lastWasAccess = true
		}
		out.Threads[ti].Instrs = instrs
	}
	return out
}

// RelabelLocations returns a copy with every shared location renamed via
// the mapping; locations absent from the map keep their name. Useful when
// merging corpora whose tests reuse location names. It fails if the
// mapping collapses two distinct locations into one.
func RelabelLocations(t *Test, mapping map[Loc]Loc) (*Test, error) {
	rename := func(l Loc) Loc {
		if n, ok := mapping[l]; ok {
			return n
		}
		return l
	}
	seen := map[Loc]Loc{}
	for _, l := range t.Locs() {
		n := rename(l)
		if prev, ok := seen[n]; ok && prev != l {
			return nil, fmt.Errorf("litmus: relabeling collapses %s and %s into %s", prev, l, n)
		}
		seen[n] = l
	}
	out := t.Clone()
	if out.Init != nil {
		init := make(map[Loc]int64, len(out.Init))
		for l, v := range out.Init {
			init[rename(l)] = v
		}
		out.Init = init
	}
	for ti := range out.Threads {
		for ii := range out.Threads[ti].Instrs {
			in := &out.Threads[ti].Instrs[ii]
			if in.Kind != OpFence {
				in.Loc = rename(in.Loc)
			}
		}
	}
	for ci := range out.Target.Conds {
		if out.Target.Conds[ci].IsMem() {
			out.Target.Conds[ci].Loc = rename(out.Target.Conds[ci].Loc)
		}
	}
	return out, nil
}
