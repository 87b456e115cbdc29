package trace

import (
	"testing"

	"perple/internal/litmus"
	"perple/internal/memmodel"
)

// tgt builds a single-condition register target (Validate requires a
// non-empty target outcome).
func tgt(thread, reg int, val int64) litmus.Outcome {
	return litmus.Outcome{Conds: []litmus.Cond{{Thread: thread, Reg: reg, Value: val}}}
}

// sbTest is the store-buffering shape: the canonical TSO-allowed,
// SC-forbidden litmus test.
func sbTest(t *testing.T) *litmus.Test {
	t.Helper()
	return &litmus.Test{
		Name:   "trace-sb",
		Target: tgt(0, 0, 0),
		Threads: []litmus.Thread{
			{Instrs: []litmus.Instr{litmus.Store("x", 1), litmus.Load(0, "y")}},
			{Instrs: []litmus.Instr{litmus.Store("y", 1), litmus.Load(0, "x")}},
		},
	}
}

// mpTest is the message-passing shape; reading the flag but stale data
// is forbidden even under TSO.
func mpTest(t *testing.T) *litmus.Test {
	t.Helper()
	return &litmus.Test{
		Name:   "trace-mp",
		Target: tgt(1, 0, 1),
		Threads: []litmus.Thread{
			{Instrs: []litmus.Instr{litmus.Store("x", 1), litmus.Store("y", 1)}},
			{Instrs: []litmus.Instr{litmus.Load(0, "y"), litmus.Load(1, "x")}},
		},
	}
}

// witness builds a one-slot WitnessSet from explicit rf and co arrays.
func witness(t *testing.T, l *Layout, rf, co []int32) *WitnessSet {
	t.Helper()
	if len(rf) != l.NLoads() || len(co) != l.NStores() {
		t.Fatalf("witness arity: rf %d/%d co %d/%d", len(rf), l.NLoads(), len(co), l.NStores())
	}
	w := NewWitnessSet(l)
	w.Reset(1, 1)
	for k, src := range rf {
		w.SetRF(0, int32(k), src)
	}
	for _, st := range co {
		w.AppendCo(0, st)
	}
	return w
}

func mustChecker(t *testing.T, test *litmus.Test, model memmodel.Model) *Checker {
	t.Helper()
	l, err := NewLayout(test)
	if err != nil {
		t.Fatalf("NewLayout(%s): %v", test.Name, err)
	}
	c, err := NewCheckerLayout(l, model)
	if err != nil {
		t.Fatalf("NewCheckerLayout(%s, %v): %v", test.Name, model, err)
	}
	return c
}

func check(t *testing.T, c *Checker, w *WitnessSet) *Violation {
	t.Helper()
	v, err := c.Check(w, 0)
	if err != nil {
		t.Fatalf("Check(%s): unexpected error %v", c.Layout().Test().Name, err)
	}
	return v
}

func TestLayoutNumbering(t *testing.T) {
	test := &litmus.Test{
		Name:   "trace-layout",
		Target: tgt(0, 0, 0),
		Threads: []litmus.Thread{
			{Instrs: []litmus.Instr{litmus.Store("x", 1), litmus.Fence(), litmus.Load(0, "y")}},
			{Instrs: []litmus.Instr{litmus.Store("y", 2), litmus.Store("x", 3), litmus.Load(0, "x")}},
		},
	}
	l, err := NewLayout(test)
	if err != nil {
		t.Fatal(err)
	}
	if l.NEvents() != 6 || l.NLoads() != 2 || l.NStores() != 3 {
		t.Fatalf("counts: events=%d loads=%d stores=%d", l.NEvents(), l.NLoads(), l.NStores())
	}
	if got := l.LoadRef(0).String(); got != "P0#2" {
		t.Errorf("LoadRef(0) = %s, want P0#2", got)
	}
	if got := l.StoreRef(2).String(); got != "P1#1" {
		t.Errorf("StoreRef(2) = %s, want P1#1", got)
	}
	if got := l.StoreRef(-1).String(); got != "init" {
		t.Errorf("StoreRef(-1) = %s, want init", got)
	}
	// x's stores in po-scan order: P0#0 (dense 0), P1#1 (dense 2).
	if got := l.StoreIdxFor(l.LoadLoc(1), 3); got != 2 {
		t.Errorf("StoreIdxFor(x, 3) = %d, want 2", got)
	}
	if got := l.StoreIdxFor(l.LoadLoc(1), 99); got != -1 {
		t.Errorf("StoreIdxFor(x, 99) = %d, want -1", got)
	}
}

// The store-buffering witness (both loads read init) is TSO-consistent
// but SC-inconsistent — the signature relaxation of the model.
func TestSBWitnessTSOAllowedSCForbidden(t *testing.T) {
	test := sbTest(t)
	tso := mustChecker(t, test, memmodel.TSO)
	w := witness(t, tso.Layout(), []int32{-1, -1}, []int32{0, 1})
	if v := check(t, tso, w); v != nil {
		t.Fatalf("TSO rejected the store-buffering witness:\n%s", v.Format())
	}
	sc := mustChecker(t, test, memmodel.SC)
	wsc := witness(t, sc.Layout(), []int32{-1, -1}, []int32{0, 1})
	v := check(t, sc, wsc)
	if v == nil {
		t.Fatal("SC accepted the store-buffering witness")
	}
	if v.Axiom != "sc" {
		t.Errorf("axiom = %q, want sc", v.Axiom)
	}
	if len(v.Cycle) == 0 {
		t.Error("violation has no cycle")
	}
}

// The forbidden message-passing witness (flag seen, data stale) must be
// rejected under TSO with a minimal 4-edge cycle.
func TestMPForbiddenWitness(t *testing.T) {
	test := mpTest(t)
	c := mustChecker(t, test, memmodel.TSO)
	// Load of y (dense 0) reads y=1 (dense 1); load of x (dense 1) reads
	// init. Drain order x=1 then y=1 (any per-location order works —
	// each location has one store).
	w := witness(t, c.Layout(), []int32{1, -1}, []int32{0, 1})
	v := check(t, c, w)
	if v == nil {
		t.Fatal("TSO accepted the forbidden mp witness")
	}
	if v.Axiom != "tso-ghb" {
		t.Errorf("axiom = %q, want tso-ghb", v.Axiom)
	}
	if len(v.Cycle) != 4 {
		t.Errorf("cycle length = %d, want 4:\n%s", len(v.Cycle), v.Format())
	}
	for i, e := range v.Cycle {
		next := v.Cycle[(i+1)%len(v.Cycle)]
		if e.To != next.From {
			t.Errorf("cycle edge %d does not chain: %s then %s", i, e, next)
		}
	}
	const want = `trace violation: trace-mp, iteration 0
  model TSO requires ppo ∪ mfence ∪ rfe ∪ co ∪ fr acyclic (tso-ghb axiom); the witness contains the cycle:
    P0#0 -[ppo]-> P0#1
    P0#1 -[rf]-> P1#0
    P1#0 -[ppo]-> P1#1
    P1#1 -[fr]-> P0#0
  witness:
    rf: P1#0 reads P0#1 (y=1)
    rf: P1#1 reads init ([x] initial value)
    co: [x]: init -> P0#0
    co: [y]: init -> P0#1
`
	if got := v.Format(); got != want {
		t.Errorf("report changed:\n%s\nwant:\n%s", got, want)
	}

	// PSO drops the store→store pair, so the same witness is PSO-consistent.
	pso := mustChecker(t, test, memmodel.PSO)
	if v := check(t, pso, witness(t, pso.Layout(), []int32{1, -1}, []int32{0, 1})); v != nil {
		t.Fatalf("PSO rejected the mp witness:\n%s", v.Format())
	}
}

// The load→load pair of mp stays ordered when a store sits between the
// loads: the store is ordered after the first load but not before the
// second, so the compiled po edges must keep the load→load pair itself.
func TestLoadOrderAcrossStore(t *testing.T) {
	test := &litmus.Test{
		Name:   "trace-mp-rwr",
		Target: tgt(1, 0, 1),
		Threads: []litmus.Thread{
			{Instrs: []litmus.Instr{litmus.Store("x", 1), litmus.Store("y", 1)}},
			{Instrs: []litmus.Instr{litmus.Load(0, "y"), litmus.Store("z", 1), litmus.Load(1, "x")}},
		},
	}
	for _, m := range memmodel.Models {
		c := mustChecker(t, test, m)
		v := check(t, c, witness(t, c.Layout(), []int32{1, -1}, []int32{0, 1, 2}))
		if (v == nil) != (m == memmodel.PSO) {
			t.Errorf("%v: got %v, want a violation unless PSO", m, v)
		}
	}
}

// A same-thread coherence reversal violates the coherence axiom under
// any model: po-loc orders the stores one way, co the other.
func TestCoherenceReversalRejected(t *testing.T) {
	test := &litmus.Test{
		Name:   "trace-cohere",
		Target: tgt(1, 0, 2),
		Threads: []litmus.Thread{
			{Instrs: []litmus.Instr{litmus.Store("x", 1), litmus.Store("x", 2)}},
			{Instrs: []litmus.Instr{litmus.Load(0, "x")}},
		},
	}
	c := mustChecker(t, test, memmodel.TSO)
	w := witness(t, c.Layout(), []int32{1}, []int32{1, 0}) // co: x=2 -> x=1
	v := check(t, c, w)
	if v == nil {
		t.Fatal("TSO accepted a same-thread co reversal")
	}
	if v.Axiom != "coherence" {
		t.Errorf("axiom = %q, want coherence", v.Axiom)
	}
}

// A stale rf — reading a value the thread has already overwritten in
// program order — is a coherence violation via fr.
func TestStaleRFRejected(t *testing.T) {
	test := &litmus.Test{
		Name:   "trace-stale",
		Target: tgt(0, 0, 1),
		Threads: []litmus.Thread{
			{Instrs: []litmus.Instr{litmus.Store("x", 1), litmus.Load(0, "x")}},
		},
	}
	c := mustChecker(t, test, memmodel.TSO)
	w := witness(t, c.Layout(), []int32{-1}, []int32{0}) // load reads init past own store
	v := check(t, c, w)
	if v == nil {
		t.Fatal("TSO accepted a stale rf")
	}
	if v.Axiom != "coherence" {
		t.Errorf("axiom = %q, want coherence", v.Axiom)
	}
}

// mfence restores store→load order: the fenced store-buffering witness
// with both loads reading init becomes TSO-forbidden.
func TestFenceRestoresOrder(t *testing.T) {
	test := &litmus.Test{
		Name:   "trace-sb-fence",
		Target: tgt(0, 0, 0),
		Threads: []litmus.Thread{
			{Instrs: []litmus.Instr{litmus.Store("x", 1), litmus.Fence(), litmus.Load(0, "y")}},
			{Instrs: []litmus.Instr{litmus.Store("y", 1), litmus.Fence(), litmus.Load(0, "x")}},
		},
	}
	c := mustChecker(t, test, memmodel.TSO)
	w := witness(t, c.Layout(), []int32{-1, -1}, []int32{0, 1})
	if v := check(t, c, w); v == nil {
		t.Fatal("TSO accepted the fenced store-buffering witness")
	}
	// The unfenced shape stays accepted (control).
	cu := mustChecker(t, sbTest(t), memmodel.TSO)
	wu := witness(t, cu.Layout(), []int32{-1, -1}, []int32{0, 1})
	if v := check(t, cu, wu); v != nil {
		t.Fatalf("control: unfenced sb witness rejected:\n%s", v.Format())
	}
}

// Under PSO a fence between two stores restores their order: the fenced
// mp witness is rejected by pso-ghb, through the fence event.
func TestPSOFenceRestoresStoreOrder(t *testing.T) {
	test := &litmus.Test{
		Name:   "trace-mp-fence",
		Target: tgt(1, 0, 1),
		Threads: []litmus.Thread{
			{Instrs: []litmus.Instr{litmus.Store("x", 1), litmus.Fence(), litmus.Store("y", 1)}},
			{Instrs: []litmus.Instr{litmus.Load(0, "y"), litmus.Load(1, "x")}},
		},
	}
	c := mustChecker(t, test, memmodel.PSO)
	v := check(t, c, witness(t, c.Layout(), []int32{1, -1}, []int32{0, 1}))
	if v == nil {
		t.Fatal("PSO accepted the fenced mp witness")
	}
	if v.Axiom != "pso-ghb" || len(v.Cycle) != 5 || v.Cycle[0].String() != "P0#0 -[ppo]-> P0#1" {
		t.Errorf("want a 5-edge pso-ghb cycle through the fence:\n%s", v.Format())
	}
}

// Forwarding (same-thread rf) must not count as rfe: a load forwarding
// its own thread's store proves nothing about memory, so the sb shape
// with forwarded loads is TSO-consistent even though each load "sees"
// the po-later store before the other thread does.
func TestInternalRFExcludedFromGHB(t *testing.T) {
	test := sbTest(t)
	c := mustChecker(t, test, memmodel.TSO)
	// Each load forwards its own thread's store? No — in sb the load is
	// to the *other* location. Use the real forwarding shape instead:
	fwd := &litmus.Test{
		Name:   "trace-fwd",
		Target: tgt(0, 0, 1),
		Threads: []litmus.Thread{
			{Instrs: []litmus.Instr{litmus.Store("x", 1), litmus.Load(0, "x"), litmus.Load(1, "y")}},
			{Instrs: []litmus.Instr{litmus.Store("y", 1), litmus.Load(0, "y"), litmus.Load(1, "x")}},
		},
	}
	c = mustChecker(t, fwd, memmodel.TSO)
	// Each thread forwards its own store (r0=1) and misses the other's
	// (r1=0): allowed under TSO (store buffering + forwarding), and the
	// internal rf must not close a ghb cycle.
	w := witness(t, c.Layout(), []int32{0, -1, 1, -1}, []int32{0, 1})
	if v := check(t, c, w); v != nil {
		t.Fatalf("TSO rejected the forwarding witness:\n%s", v.Format())
	}
	// Under SC the same witness is inconsistent (it is sb's forbidden
	// outcome with the forwarded reads added).
	sc := mustChecker(t, fwd, memmodel.SC)
	wsc := witness(t, sc.Layout(), []int32{0, -1, 1, -1}, []int32{0, 1})
	if v := check(t, sc, wsc); v == nil {
		t.Fatal("SC accepted the forwarded sb witness")
	}
}

func TestMalformedWitnesses(t *testing.T) {
	test := mpTest(t)
	c := mustChecker(t, test, memmodel.TSO)
	l := c.Layout()

	cases := []struct {
		name   string
		rf, co []int32
	}{
		{"rf wrong location", []int32{0, -1}, []int32{0, 1}}, // load of y reads store to x
		{"rf out of range", []int32{5, -1}, []int32{0, 1}},
		{"co duplicate", []int32{1, -1}, []int32{0, 0}},
		{"co missing store", []int32{1, -1}, []int32{0, -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWitnessSet(l)
			w.Reset(1, 1)
			for k, src := range tc.rf {
				w.RF[k] = src
			}
			copy(w.Co, tc.co)
			if _, err := c.Check(w, 0); err == nil {
				t.Error("malformed witness accepted without error")
			}
		})
	}
}

func TestWitnessSetSampling(t *testing.T) {
	l, err := NewLayout(sbTest(t))
	if err != nil {
		t.Fatal(err)
	}
	w := NewWitnessSet(l)
	w.Reset(10, 3)
	if w.Slots != 4 {
		t.Fatalf("Slots = %d, want 4", w.Slots)
	}
	if got := w.Iter(3); got != 9 {
		t.Errorf("Iter(3) = %d, want 9", got)
	}
	// Reset reuses backing arrays and refills them.
	w.SetRF(0, 0, 1)
	w.AppendCo(0, 1)
	w.Reset(2, 1)
	if w.Slots != 2 || w.RF[0] != -1 || w.Co[0] != -1 {
		t.Errorf("Reset did not refill: slots=%d rf0=%d co0=%d", w.Slots, w.RF[0], w.Co[0])
	}
	w.AppendCo(0, 0)
	if w.CoAt(0)[0] != 0 {
		t.Error("AppendCo after Reset landed wrong")
	}
}

func TestCheckerModelValidation(t *testing.T) {
	l, err := NewLayout(sbTest(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range memmodel.Models {
		if _, err := NewCheckerLayout(l, m); err != nil {
			t.Errorf("NewCheckerLayout rejected %v: %v", m, err)
		}
	}
	if _, err := NewCheckerLayout(l, memmodel.Model(7)); err == nil {
		t.Error("NewCheckerLayout accepted Model(7)")
	}
}
