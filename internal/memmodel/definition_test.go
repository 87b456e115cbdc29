package memmodel_test

import (
	"fmt"
	"testing"

	"perple/internal/litmus"
	. "perple/internal/memmodel"
)

// TestKeepsPOGrid pins KeepsPO over kind × kind × same-location × fenced
// for every model. The dropped pairs are listed here by hand: TSO drops
// unfenced store→load, PSO additionally unfenced store→store to
// different locations, SC nothing.
func TestKeepsPOGrid(t *testing.T) {
	dropped := map[Model][]string{
		SC:  nil,
		TSO: {"store→load same=true", "store→load same=false"},
		PSO: {"store→load same=true", "store→load same=false", "store→store same=false"},
	}
	kinds := []litmus.OpKind{litmus.OpStore, litmus.OpLoad, litmus.OpFence}
	instr := func(k litmus.OpKind, loc litmus.Loc) litmus.Instr {
		switch k {
		case litmus.OpStore:
			return litmus.Store(loc, 1)
		case litmus.OpLoad:
			return litmus.Load(0, loc)
		}
		return litmus.Fence()
	}
	for _, m := range Models {
		drop := map[string]bool{}
		for _, d := range dropped[m] {
			drop[d] = true
		}
		for _, fk := range kinds {
			for _, tk := range kinds {
				for _, same := range []bool{true, false} {
					to := litmus.Loc("x")
					if !same {
						to = "y"
					}
					for _, fenced := range []bool{false, true} {
						pair := fmt.Sprintf("%v→%v same=%v", fk, tk, same)
						want := fenced || !drop[pair]
						if got := m.KeepsPO(instr(fk, "x"), instr(tk, to), fenced); got != want {
							t.Errorf("%v.KeepsPO(%s, fenced=%v) = %v, want %v", m, pair, fenced, got, want)
						}
					}
				}
			}
		}
	}
}

// TestAxioms pins each model's axiom list and its rendering.
func TestAxioms(t *testing.T) {
	want := map[Model]string{
		SC:  "sc: po ∪ rf ∪ co ∪ fr",
		TSO: "coherence: po-loc ∪ rf ∪ co ∪ fr; tso-ghb: ppo ∪ mfence ∪ rfe ∪ co ∪ fr",
		PSO: "coherence: po-loc ∪ rf ∪ co ∪ fr; pso-ghb: ppo ∪ mfence ∪ rfe ∪ co ∪ fr",
	}
	for _, m := range Models {
		var got string
		for i, ax := range m.Axioms() {
			if i > 0 {
				got += "; "
			}
			got += ax.Name + ": " + ax.Union()
		}
		if got != want[m] {
			t.Errorf("%v axioms = %q, want %q", m, got, want[m])
		}
	}
	if Model(7).Axioms() != nil {
		t.Error("Model(7) has axioms")
	}
}

// TestOrderedScopes checks the pairs each po scope relates on one
// thread: store x, load y, fence, load x.
func TestOrderedScopes(t *testing.T) {
	instrs := []litmus.Instr{litmus.Store("x", 1), litmus.Load(0, "y"), litmus.Fence(), litmus.Load(1, "x")}
	cases := []struct {
		m     Model
		scope POScope
		want  string
	}{
		{TSO, POLoc, "[0→3]"},
		{TSO, PO, "[0→1 0→2 0→3 1→2 1→3 2→3]"},
		{TSO, PPO, "[0→2 0→3 1→2 1→3 2→3]"},
		{SC, PPO, "[0→1 0→2 0→3 1→2 1→3 2→3]"},
	}
	for _, tc := range cases {
		var pairs []string
		tc.m.Ordered(tc.scope, instrs, func(i, j int) { pairs = append(pairs, fmt.Sprintf("%d→%d", i, j)) })
		if got := fmt.Sprint(pairs); got != tc.want {
			t.Errorf("%v %v: got %s, want %s", tc.m, tc.scope, got, tc.want)
		}
	}
}

// TestScopesTransitive checks that every po scope of every model is
// transitively closed on all four-instruction threads over two
// locations, which lets internal/trace keep only a scope's transitive
// reduction.
func TestScopesTransitive(t *testing.T) {
	alphabet := []litmus.Instr{litmus.Store("x", 1), litmus.Store("y", 1), litmus.Load(0, "x"), litmus.Load(0, "y"), litmus.Fence()}
	const n = 4
	instrs := make([]litmus.Instr, n)
	for code := 0; code < 625; code++ {
		for i, c := 0, code; i < n; i, c = i+1, c/5 {
			instrs[i] = alphabet[c%5]
		}
		for _, m := range Models {
			for _, s := range []POScope{POLoc, PO, PPO} {
				var ord [n][n]bool
				m.Ordered(s, instrs, func(i, j int) { ord[i][j] = true })
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						for k := j + 1; k < n; k++ {
							if ord[i][j] && ord[j][k] && !ord[i][k] {
								t.Fatalf("%v %v not transitive on %v: %d→%d→%d", m, s, instrs, i, j, k)
							}
						}
					}
				}
			}
		}
	}
}
