// The perpetual litmus suite of Table II of the PerpLE paper: 34 x86-TSO
// litmus tests whose target outcomes are convertible to perpetual
// outcomes, split into those allowed and those forbidden by x86-TSO.
//
// Canonical tests (sb, lb, mp and variants, wrc, rwc, iriw, iwp2.3.b)
// follow Owens/Sarkar/Sewell's x86-TSO corpus. The diy-generated tests
// (rfi0xx, safe0xx, amdN, nN) are reconstructions: the original suite
// bodies are not published in the paper, so each reconstruction matches
// the paper's [T, T_L] signature from Table II and its allowed/forbidden
// classification, which internal/memmodel verifies in tests. Every
// allowed-group target is additionally SC-forbidden, so observing it
// demonstrates store buffering (the paper's notion of "target outcome").
package litmus

import (
	"fmt"
	"sort"
)

// SuiteEntry pairs a test with its Table II metadata.
type SuiteEntry struct {
	Test *Test
	// Allowed reports whether the target outcome is allowed by x86-TSO
	// (Table II grouping). internal/memmodel re-derives and checks this.
	Allowed bool
}

var suite []SuiteEntry

// Suite returns the perpetual litmus suite in Table II order (allowed
// group first, alphabetical within group). Callers must not mutate the
// returned tests; use Test.Clone for modification.
func Suite() []SuiteEntry {
	return suite
}

// SuiteTest returns the named suite test, or an error if absent.
func SuiteTest(name string) (*Test, error) {
	for _, e := range suite {
		if e.Test.Name == name {
			return e.Test, nil
		}
	}
	return nil, fmt.Errorf("litmus: no suite test named %q", name)
}

// SuiteNames returns the names of all suite tests in suite order.
func SuiteNames() []string {
	names := make([]string, len(suite))
	for i, e := range suite {
		names[i] = e.Test.Name
	}
	return names
}

// AllowedSuite returns only the entries whose target outcome x86-TSO
// allows (the group PerpLE expects to observe).
func AllowedSuite() []SuiteEntry {
	var out []SuiteEntry
	for _, e := range suite {
		if e.Allowed {
			out = append(out, e)
		}
	}
	return out
}

// ForbiddenSuite returns only the entries whose target outcome x86-TSO
// forbids (expected never to be observed; false-positive checks).
func ForbiddenSuite() []SuiteEntry {
	var out []SuiteEntry
	for _, e := range suite {
		if !e.Allowed {
			out = append(out, e)
		}
	}
	return out
}

func addSuite(allowed bool, t *Test) {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	suite = append(suite, SuiteEntry{Test: t, Allowed: allowed})
}

func rc(thread, reg int, v int64) Cond { return Cond{Thread: thread, Reg: reg, Value: v} }

func outcome(conds ...Cond) Outcome { return Outcome{Conds: conds} }

func threads(ths ...[]Instr) []Thread {
	out := make([]Thread, len(ths))
	for i, ins := range ths {
		out[i] = Thread{Instrs: ins}
	}
	return out
}

func init() {
	// ----- Target outcome allowed by x86-TSO (12 tests) -----

	// amd3 [2,2]: store buffering with an intervening same-location
	// overwrite; the stale first store is observed while both buffers are
	// full. Exercises k_x = 2.
	addSuite(true, &Test{
		Name: "amd3",
		Doc:  "store buffering with double store; stale value observed",
		Threads: threads(
			[]Instr{Store("x", 1), Store("x", 2), Load(0, "y")},
			[]Instr{Store("y", 1), Load(0, "x")},
		),
		Target: outcome(rc(0, 0, 0), rc(1, 0, 1)),
	})

	// iwp23b [2,2]: Intel WP example 2.3.b — store buffering with
	// store-to-load forwarding on both threads.
	addSuite(true, &Test{
		Name: "iwp23b",
		Doc:  "store buffering with forwarding on both threads (Intel 2.3.b)",
		Threads: threads(
			[]Instr{Store("x", 1), Load(0, "x"), Load(1, "y")},
			[]Instr{Store("y", 1), Load(0, "y"), Load(1, "x")},
		),
		Target: outcome(rc(0, 0, 1), rc(0, 1, 0), rc(1, 0, 1), rc(1, 1, 0)),
	})

	// iwp24 [2,2]: intra-processor forwarding is allowed — asymmetric
	// variant with forwarding on one thread only.
	addSuite(true, &Test{
		Name: "iwp24",
		Doc:  "store buffering with forwarding on one thread (Intel 2.4)",
		Threads: threads(
			[]Instr{Store("x", 1), Load(0, "x"), Load(1, "y")},
			[]Instr{Store("y", 1), Load(0, "x")},
		),
		Target: outcome(rc(0, 0, 1), rc(0, 1, 0), rc(1, 0, 0)),
	})

	// n1 [3,2]: store buffering under third-party store traffic; the
	// store-only thread stresses the memory system without participating
	// in the outcome.
	addSuite(true, &Test{
		Name: "n1",
		Doc:  "store buffering with a third store-only thread",
		Threads: threads(
			[]Instr{Store("x", 1), Load(0, "y")},
			[]Instr{Store("y", 1), Load(0, "x")},
			[]Instr{Store("z", 1)},
		),
		Target: outcome(rc(0, 0, 0), rc(1, 0, 0)),
	})

	// podwr000 [2,2]: program-ordered write→read, two-thread form with a
	// leading store to an unrelated location.
	addSuite(true, &Test{
		Name: "podwr000",
		Doc:  "write-to-read reordering with a leading unrelated store",
		Threads: threads(
			[]Instr{Store("w", 1), Store("x", 1), Load(0, "y")},
			[]Instr{Store("y", 1), Load(0, "x")},
		),
		Target: outcome(rc(0, 0, 0), rc(1, 0, 0)),
	})

	// podwr001 [3,3]: three-thread cyclic store buffering (Figure 2 of the
	// paper: sb extended to three threads).
	addSuite(true, &Test{
		Name: "podwr001",
		Doc:  "three-thread cyclic store buffering (paper Fig. 2)",
		Threads: threads(
			[]Instr{Store("x", 1), Load(0, "y")},
			[]Instr{Store("y", 1), Load(0, "z")},
			[]Instr{Store("z", 1), Load(0, "x")},
		),
		Target: outcome(rc(0, 0, 0), rc(1, 0, 0), rc(2, 0, 0)),
	})

	// rfi009 [2,2]: forwarding read (rfi) on one thread against a
	// double-store partner. Exercises k_y = 2.
	addSuite(true, &Test{
		Name: "rfi009",
		Doc:  "forwarding read vs double-store partner",
		Threads: threads(
			[]Instr{Store("x", 1), Load(0, "x"), Load(1, "y")},
			[]Instr{Store("y", 1), Store("y", 2), Load(0, "x")},
		),
		Target: outcome(rc(0, 0, 1), rc(0, 1, 0), rc(1, 0, 0)),
	})

	// rfi013 [2,2]: forwarding after a same-location overwrite: the
	// partner observes the first store while the overwrite is buffered.
	addSuite(true, &Test{
		Name: "rfi013",
		Doc:  "forwarding after overwrite; partner sees the stale store",
		Threads: threads(
			[]Instr{Store("x", 1), Store("x", 2), Load(0, "x"), Load(1, "y")},
			[]Instr{Store("y", 1), Load(0, "x")},
		),
		Target: outcome(rc(0, 0, 2), rc(0, 1, 0), rc(1, 0, 1)),
	})

	// rfi015 [3,2]: one-sided forwarding with third-party store traffic to
	// the forwarded location (k_x = 2).
	addSuite(true, &Test{
		Name: "rfi015",
		Doc:  "one-sided forwarding with third-party stores to x",
		Threads: threads(
			[]Instr{Store("x", 1), Load(0, "x"), Load(1, "y")},
			[]Instr{Store("y", 1), Load(0, "x")},
			[]Instr{Store("x", 2)},
		),
		Target: outcome(rc(0, 0, 1), rc(0, 1, 0), rc(1, 0, 0)),
	})

	// rfi017 [2,2]: forwarding on both threads, double store on one side
	// (k_y = 2).
	addSuite(true, &Test{
		Name: "rfi017",
		Doc:  "bilateral forwarding with a double store",
		Threads: threads(
			[]Instr{Store("x", 1), Load(0, "x"), Load(1, "y")},
			[]Instr{Store("y", 1), Store("y", 2), Load(0, "y"), Load(1, "x")},
		),
		Target: outcome(rc(0, 0, 1), rc(0, 1, 0), rc(1, 0, 2), rc(1, 1, 0)),
	})

	// rwc-unfenced [3,2]: read-to-write causality without fences; the
	// writing reader's store is delayed past its read.
	addSuite(true, &Test{
		Name: "rwc-unfenced",
		Doc:  "read-to-write causality, unfenced (allowed)",
		Threads: threads(
			[]Instr{Store("x", 1)},
			[]Instr{Load(0, "x"), Load(1, "y")},
			[]Instr{Store("y", 1), Load(0, "x")},
		),
		Target: outcome(rc(1, 0, 1), rc(1, 1, 0), rc(2, 0, 0)),
	})

	// sb [2,2]: the canonical store buffering test (paper Fig. 2).
	addSuite(true, &Test{
		Name: "sb",
		Doc:  "store buffering (paper Fig. 2)",
		Threads: threads(
			[]Instr{Store("x", 1), Load(0, "y")},
			[]Instr{Store("y", 1), Load(0, "x")},
		),
		Target: outcome(rc(0, 0, 0), rc(1, 0, 0)),
	})

	// ----- Target outcome forbidden by x86-TSO (22 tests) -----

	// amd10 [2,2]: fenced bilateral forwarding; the fences force the
	// buffered stores out before the cross reads.
	addSuite(false, &Test{
		Name: "amd10",
		Doc:  "bilateral forwarding with fences (forbidden)",
		Threads: threads(
			[]Instr{Store("x", 1), Load(0, "x"), Fence(), Load(1, "y")},
			[]Instr{Store("y", 1), Load(0, "y"), Fence(), Load(1, "x")},
		),
		Target: outcome(rc(0, 0, 1), rc(0, 1, 0), rc(1, 0, 1), rc(1, 1, 0)),
	})

	// amd5 [2,2]: store buffering with full fences — the classic
	// mutual-exclusion-critical pattern; forbidden.
	addSuite(false, &Test{
		Name: "amd5",
		Doc:  "store buffering with fences (forbidden)",
		Threads: threads(
			[]Instr{Store("x", 1), Fence(), Load(0, "y")},
			[]Instr{Store("y", 1), Fence(), Load(0, "x")},
		),
		Target: outcome(rc(0, 0, 0), rc(1, 0, 0)),
	})

	// amd5+staleld [2,2]: fenced store buffering where the second read of
	// x would have to travel backwards in coherence order.
	addSuite(false, &Test{
		Name: "amd5+staleld",
		Doc:  "fenced store buffering with a stale second load (forbidden)",
		Threads: threads(
			[]Instr{Store("x", 1), Fence(), Load(0, "y")},
			[]Instr{Store("y", 1), Fence(), Load(0, "x"), Load(1, "x")},
		),
		Target: outcome(rc(0, 0, 0), rc(1, 0, 1), rc(1, 1, 0)),
	})

	// co-iriw [4,2]: independent reads of writes to a single location; the
	// two readers would have to disagree on the coherence order of x.
	addSuite(false, &Test{
		Name: "co-iriw",
		Doc:  "IRIW on one location: readers disagree on coherence order",
		Threads: threads(
			[]Instr{Store("x", 1)},
			[]Instr{Store("x", 2)},
			[]Instr{Load(0, "x"), Load(1, "x")},
			[]Instr{Load(0, "x"), Load(1, "x")},
		),
		Target: outcome(rc(2, 0, 1), rc(2, 1, 2), rc(3, 0, 2), rc(3, 1, 1)),
	})

	// iriw [4,2]: independent reads of independent writes; forbidden under
	// TSO's single global store order.
	addSuite(false, &Test{
		Name: "iriw",
		Doc:  "independent reads of independent writes (forbidden)",
		Threads: threads(
			[]Instr{Store("x", 1)},
			[]Instr{Store("y", 1)},
			[]Instr{Load(0, "x"), Load(1, "y")},
			[]Instr{Load(0, "y"), Load(1, "x")},
		),
		Target: outcome(rc(2, 0, 1), rc(2, 1, 0), rc(3, 0, 1), rc(3, 1, 0)),
	})

	// lb [2,2]: load buffering (paper Fig. 2); forbidden because TSO never
	// reorders a store before an earlier load.
	addSuite(false, &Test{
		Name: "lb",
		Doc:  "load buffering (paper Fig. 2; forbidden)",
		Threads: threads(
			[]Instr{Load(0, "y"), Store("x", 1)},
			[]Instr{Load(0, "x"), Store("y", 1)},
		),
		Target: outcome(rc(0, 0, 1), rc(1, 0, 1)),
	})

	// mp [2,1]: message passing; forbidden because TSO preserves
	// store-store and load-load order.
	addSuite(false, &Test{
		Name: "mp",
		Doc:  "message passing (forbidden)",
		Threads: threads(
			[]Instr{Store("x", 1), Store("y", 1)},
			[]Instr{Load(0, "y"), Load(1, "x")},
		),
		Target: outcome(rc(1, 0, 1), rc(1, 1, 0)),
	})

	// mp+staleld [2,1]: message passing with a repeated flag read that
	// would have to observe coherence backwards.
	addSuite(false, &Test{
		Name: "mp+staleld",
		Doc:  "message passing with stale second load (forbidden)",
		Threads: threads(
			[]Instr{Store("x", 1), Store("y", 1)},
			[]Instr{Load(0, "y"), Load(1, "x"), Load(2, "x")},
		),
		Target: outcome(rc(1, 0, 1), rc(1, 1, 1), rc(1, 2, 0)),
	})

	// mp+fences [2,1]: message passing with full fences; forbidden a
	// fortiori.
	addSuite(false, &Test{
		Name: "mp+fences",
		Doc:  "message passing with fences (forbidden)",
		Threads: threads(
			[]Instr{Store("x", 1), Fence(), Store("y", 1)},
			[]Instr{Load(0, "y"), Fence(), Load(1, "x")},
		),
		Target: outcome(rc(1, 0, 1), rc(1, 1, 0)),
	})

	// n4 [2,2]: load-store cycle on one location; forbidden because TSO
	// never reorders a store before an earlier load.
	addSuite(false, &Test{
		Name: "n4",
		Doc:  "load-store cycle on one location (forbidden)",
		Threads: threads(
			[]Instr{Load(0, "x"), Store("x", 1)},
			[]Instr{Load(0, "x"), Store("x", 2)},
		),
		Target: outcome(rc(0, 0, 2), rc(1, 0, 1)),
	})

	// n5 [2,2]: store-load on one location; each thread would observe the
	// other's store as newer, contradicting a single coherence order.
	addSuite(false, &Test{
		Name: "n5",
		Doc:  "store-load coherence contradiction (forbidden)",
		Threads: threads(
			[]Instr{Store("x", 1), Load(0, "x")},
			[]Instr{Store("x", 2), Load(0, "x")},
		),
		Target: outcome(rc(0, 0, 2), rc(1, 0, 1)),
	})

	// rwc-fenced [3,2]: read-to-write causality with a fence in the
	// writing reader; forbidden.
	addSuite(false, &Test{
		Name: "rwc-fenced",
		Doc:  "read-to-write causality, fenced (forbidden)",
		Threads: threads(
			[]Instr{Store("x", 1)},
			[]Instr{Load(0, "x"), Load(1, "y")},
			[]Instr{Store("y", 1), Fence(), Load(0, "x")},
		),
		Target: outcome(rc(1, 0, 1), rc(1, 1, 0), rc(2, 0, 0)),
	})

	// safe006 [2,2]: single-location coherence: a reader seeing 2 then 1
	// would travel backwards in the write order 1 → 2 established by
	// thread 0's program order.
	addSuite(false, &Test{
		Name: "safe006",
		Doc:  "coherence: stale re-read of one location (forbidden)",
		Threads: threads(
			[]Instr{Store("x", 1), Load(0, "x"), Load(1, "x")},
			[]Instr{Store("x", 2), Load(0, "x")},
		),
		Target: outcome(rc(0, 0, 2), rc(0, 1, 1), rc(1, 0, 2)),
	})

	// safe007 [3,3]: write-read causality where every thread loads; the
	// trivial forwarding read makes thread 0 load-performing.
	addSuite(false, &Test{
		Name: "safe007",
		Doc:  "write-read causality, all threads loading (forbidden)",
		Threads: threads(
			[]Instr{Store("x", 1), Load(0, "x")},
			[]Instr{Load(0, "x"), Store("y", 1)},
			[]Instr{Load(0, "y"), Load(1, "x")},
		),
		Target: outcome(rc(0, 0, 1), rc(1, 0, 1), rc(2, 0, 1), rc(2, 1, 0)),
	})

	// safe012 [3,2]: write-read causality with fences in both readers.
	addSuite(false, &Test{
		Name: "safe012",
		Doc:  "write-read causality with fences (forbidden)",
		Threads: threads(
			[]Instr{Store("x", 1)},
			[]Instr{Load(0, "x"), Fence(), Store("y", 1)},
			[]Instr{Load(0, "y"), Fence(), Load(1, "x")},
		),
		Target: outcome(rc(1, 0, 1), rc(2, 0, 1), rc(2, 1, 0)),
	})

	// safe018 [3,2]: three-thread message-passing chain through z.
	addSuite(false, &Test{
		Name: "safe018",
		Doc:  "transitive message passing chain (forbidden)",
		Threads: threads(
			[]Instr{Store("x", 1), Store("y", 1)},
			[]Instr{Load(0, "y"), Store("z", 1)},
			[]Instr{Load(0, "z"), Load(1, "x")},
		),
		Target: outcome(rc(1, 0, 1), rc(2, 0, 1), rc(2, 1, 0)),
	})

	// safe022 [2,1]: message passing with a fence on the writer side only;
	// still forbidden, as load-load order is preserved regardless.
	addSuite(false, &Test{
		Name: "safe022",
		Doc:  "message passing, writer-fenced (forbidden)",
		Threads: threads(
			[]Instr{Store("x", 1), Fence(), Store("y", 1)},
			[]Instr{Load(0, "y"), Load(1, "x")},
		),
		Target: outcome(rc(1, 0, 1), rc(1, 1, 0)),
	})

	// safe024 [3,2]: fenced store buffering under third-party store
	// traffic.
	addSuite(false, &Test{
		Name: "safe024",
		Doc:  "fenced store buffering with a third store-only thread",
		Threads: threads(
			[]Instr{Store("x", 1), Fence(), Load(0, "y")},
			[]Instr{Store("y", 1), Fence(), Load(0, "x")},
			[]Instr{Store("z", 1)},
		),
		Target: outcome(rc(0, 0, 0), rc(1, 0, 0)),
	})

	// safe027 [4,2]: IRIW with fenced readers; forbidden (and would remain
	// so even under weaker models with fences).
	addSuite(false, &Test{
		Name: "safe027",
		Doc:  "IRIW with fenced readers (forbidden)",
		Threads: threads(
			[]Instr{Store("x", 1)},
			[]Instr{Store("y", 1)},
			[]Instr{Load(0, "x"), Fence(), Load(1, "y")},
			[]Instr{Load(0, "y"), Fence(), Load(1, "x")},
		),
		Target: outcome(rc(2, 0, 1), rc(2, 1, 0), rc(3, 0, 1), rc(3, 1, 0)),
	})

	// safe028 [3,2]: message passing observed identically by two readers;
	// the target embeds the forbidden mp pattern in reader 1.
	addSuite(false, &Test{
		Name: "safe028",
		Doc:  "message passing with two readers (forbidden)",
		Threads: threads(
			[]Instr{Store("x", 1), Store("y", 1)},
			[]Instr{Load(0, "y"), Load(1, "x")},
			[]Instr{Load(0, "y"), Load(1, "x")},
		),
		Target: outcome(rc(1, 0, 1), rc(1, 1, 0), rc(2, 0, 0), rc(2, 1, 0)),
	})

	// safe036 [2,2]: load buffering with a fence; forbidden a fortiori.
	addSuite(false, &Test{
		Name: "safe036",
		Doc:  "load buffering with a fence (forbidden)",
		Threads: threads(
			[]Instr{Load(0, "y"), Store("x", 1)},
			[]Instr{Load(0, "x"), Fence(), Store("y", 1)},
		),
		Target: outcome(rc(0, 0, 1), rc(1, 0, 1)),
	})

	// wrc [3,2]: write-read causality; forbidden because TSO stores are
	// transitively visible.
	addSuite(false, &Test{
		Name: "wrc",
		Doc:  "write-read causality (forbidden)",
		Threads: threads(
			[]Instr{Store("x", 1)},
			[]Instr{Load(0, "x"), Store("y", 1)},
			[]Instr{Load(0, "y"), Load(1, "x")},
		),
		Target: outcome(rc(1, 0, 1), rc(2, 0, 1), rc(2, 1, 0)),
	})

	// Keep Table II order: allowed group first, then forbidden group,
	// each alphabetical.
	sort.SliceStable(suite, func(i, j int) bool {
		if suite[i].Allowed != suite[j].Allowed {
			return suite[i].Allowed
		}
		return suite[i].Test.Name < suite[j].Test.Name
	})
}

// Builtin returns every built-in test: the Table II suite in suite
// order, followed by the NonConvertible examples. The slice is fresh;
// the tests are shared and must not be mutated.
func Builtin() []*Test {
	nc := NonConvertible()
	tests := make([]*Test, 0, len(suite)+len(nc))
	for _, e := range suite {
		tests = append(tests, e.Test)
	}
	return append(tests, nc...)
}

// NonConvertible returns example litmus tests whose target outcome
// constrains final shared memory and therefore cannot be converted to a
// perpetual test (Section V-C of the paper). They stand in for the
// remaining tests of the original 88-test corpus and run only under the
// litmus7-style harness.
func NonConvertible() []*Test {
	mk := func(t *Test) *Test {
		if err := t.Validate(); err != nil {
			panic(err)
		}
		return t
	}
	memCond := func(loc Loc, v int64) Cond { return Cond{Loc: loc, Value: v} }
	return []*Test{
		// 2+2W: write-write cycles observed through final memory.
		mk(&Test{
			Name: "2+2w",
			Doc:  "double write-write; final state shows both first writes lost",
			Threads: threads(
				[]Instr{Store("x", 1), Store("y", 2)},
				[]Instr{Store("y", 1), Store("x", 2)},
			),
			Target: outcome(memCond("x", 1), memCond("y", 1)),
		}),
		// R: store race decided against program order.
		mk(&Test{
			Name: "r",
			Doc:  "store race with message passing; final-state target",
			Threads: threads(
				[]Instr{Store("x", 1), Store("y", 1)},
				[]Instr{Store("y", 2), Load(0, "x")},
			),
			Target: outcome(rc(1, 0, 0), memCond("y", 1)),
		}),
		// S: write after read-from, resolved through final state.
		mk(&Test{
			Name: "s",
			Doc:  "write overtaking an observed write; final-state target",
			Threads: threads(
				[]Instr{Store("x", 2), Store("y", 1)},
				[]Instr{Load(0, "y"), Store("x", 1)},
			),
			Target: outcome(rc(1, 0, 1), memCond("x", 2)),
		}),
		// coWW: coherence of two program-ordered writes.
		mk(&Test{
			Name: "coww",
			Doc:  "write-write coherence; final state cannot be the first write",
			Threads: threads(
				[]Instr{Store("x", 1), Store("x", 2)},
				[]Instr{Load(0, "x")},
			),
			Target: outcome(rc(1, 0, 2), memCond("x", 1)),
		}),
		// coRW2: read-write coherence across threads.
		mk(&Test{
			Name: "corw2",
			Doc:  "read then overwrite vs external store; final-state target",
			Threads: threads(
				[]Instr{Load(0, "x"), Store("x", 1)},
				[]Instr{Store("x", 2)},
			),
			Target: outcome(rc(0, 0, 2), memCond("x", 2)),
		}),
		// W+RW: store visibility through a final-state witness.
		mk(&Test{
			Name: "w+rw",
			Doc:  "store visibility witnessed by final state",
			Threads: threads(
				[]Instr{Store("x", 1)},
				[]Instr{Load(0, "x"), Store("y", 1)},
			),
			Target: outcome(rc(1, 0, 1), memCond("y", 1), memCond("x", 1)),
		}),
	}
}
