// The oracle is the differential layer between the static axiomatic
// checker (internal/axiom) and the operational simulator (this
// package). It asserts, for a litmus test, the two directions of
// agreement the axiomatic model promises:
//
//   - soundness: every final state the simulator observes is axiomatically
//     TSO-allowed — equivalently, no Forbidden outcome ever appears;
//   - SC coverage: with store-buffer drains disabled the machine behaves
//     sequentially consistent enough that every SC-allowed state is
//     reachable.
//
// A divergence is a simulator bug, an axiom bug, or a real model
// disagreement; Divergence.Explain prints the axiomatic evidence (the
// allowed-state table and witness executions) next to the simulator's
// machine-event trace so the disagreement can be triaged from the test
// log alone.

package sim

import (
	"fmt"
	"sort"
	"strings"

	"perple/internal/axiom"
	"perple/internal/litmus"
	"perple/internal/memmodel"
)

// Divergence is one axiom-vs-simulator disagreement.
type Divergence struct {
	Test *litmus.Test
	// Kind is "forbidden-state" (the simulator produced a state outside
	// the TSO-allowed set) or "sc-unreachable" (an SC-allowed state never
	// appeared with drains disabled).
	Kind string
	// Iter is the iteration that produced a forbidden state; -1 for
	// sc-unreachable.
	Iter int
	Regs [][]int64
	Mem  map[litmus.Loc]int64
	// Witness is the axiomatic witness of the missing state for
	// sc-unreachable divergences; nil for forbidden-state ones (no witness
	// exists — that is the violation).
	Witness *axiom.Witness
}

func (d *Divergence) String() string {
	state := formatState(d.Regs, d.Mem)
	if d.Kind == "forbidden-state" {
		return fmt.Sprintf("%s: iteration %d produced TSO-forbidden state %s", d.Test.Name, d.Iter, state)
	}
	return fmt.Sprintf("%s: SC-allowed state %s unreachable with drains disabled", d.Test.Name, state)
}

// CheckTSO runs the simulator and verifies every observed per-iteration
// final state against the axiomatic TSO-allowed set. iters and cfg are
// the caller's budget; any mode works.
func CheckTSO(tc *litmus.Test, rep *axiom.Report, iters int, mode Mode, cfg Config) ([]Divergence, error) {
	res, err := runSynced(tc, iters, mode, cfg)
	if err != nil {
		return nil, err
	}
	return DiffStates(tc, rep, res), nil
}

// DiffStates checks each iteration of an existing run against the
// TSO-allowed set.
func DiffStates(tc *litmus.Test, rep *axiom.Report, res *SyncedResult) []Divergence {
	allowed := make(map[string]bool, len(rep.Results))
	for i := range rep.Results {
		allowed[memmodel.StateKey(tc, rep.Results[i].Regs, rep.Results[i].Mem)] = true
	}
	var divs []Divergence
	var scratch [][]int64
	for n := 0; n < res.N; n++ {
		scratch = registerFile(res, n, scratch)
		mem := memAt(res, n)
		if allowed[memmodel.StateKey(tc, scratch, mem)] {
			continue
		}
		regs := make([][]int64, len(scratch))
		for i := range scratch {
			regs[i] = append([]int64(nil), scratch[i]...)
		}
		divs = append(divs, Divergence{
			Test: tc, Kind: "forbidden-state", Iter: n, Regs: regs, Mem: mem,
		})
	}
	return divs
}

// SCCoverageConfig derives a schedule-diversifying variant of a config
// for the SC-coverage direction: frequent short preemptions and strong
// per-thread speed jitter so rare interleavings — including fully
// serialized thread orders, which near-simultaneous barrier releases
// almost never produce — appear within a small iteration budget. The
// soundness direction must NOT use it: it checks what the calibrated
// machine actually does.
func SCCoverageConfig(base Config) Config {
	base.PreemptProb = 0.08
	base.PreemptMin = 5
	base.PreemptMax = 150
	base.SpeedJitterPct = 70
	base.LaunchSpread = 60
	// Stretch instruction costs to the scale of the barrier release
	// spread: with ~2-tick instructions and a ~160-tick spread, a load
	// almost never lands between two specific remote stores, so joint
	// states needing several such straddles at once are unreachable in a
	// CI-sized budget. Wide, highly variable costs make every relative
	// ordering of any two instructions roughly equiprobable.
	base.InstrCostMin = 15
	base.InstrCostMax = 120
	return base
}

// CheckSCCoverage runs the simulator with drains disabled (DrainMin =
// DrainMax = 0: a store reaches memory the tick it executes, so the
// machine is sequentially consistent up to forwarding, which reads the
// same value either way) and reports every SC-allowed state that never
// appeared within the iteration budget. Runs are chunked so well-behaved
// tests stop as soon as coverage is complete; with a fixed seed the
// outcome is deterministic.
func CheckSCCoverage(tc *litmus.Test, rep *axiom.Report, maxIters int, mode Mode, cfg Config) ([]Divergence, error) {
	cfg.DrainMin, cfg.DrainMax = 0, 0
	want := rep.SCResults()
	missing := make(map[int]bool, len(want))
	for i := range want {
		missing[i] = true
	}
	ct, err := Compile(tc)
	if err != nil {
		return nil, err
	}
	runner := NewRunner(ct)
	const chunk = 200
	seed := cfg.Seed
	for done := 0; done < maxIters && len(missing) > 0; done += chunk {
		n := chunk
		if rem := maxIters - done; n > rem {
			n = rem
		}
		res, err := runner.RunSynced(n, mode, cfg.WithSeed(seed+int64(done)))
		if err != nil {
			return nil, err
		}
		var scratch [][]int64
		for it := 0; it < res.N && len(missing) > 0; it++ {
			scratch = registerFile(res, it, scratch)
			mem := memAt(res, it)
			for i := range missing {
				if statesEqual(&want[i], scratch, mem) {
					delete(missing, i)
				}
			}
		}
	}
	idxs := make([]int, 0, len(missing))
	for i := range missing {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	var divs []Divergence
	for _, i := range idxs {
		divs = append(divs, Divergence{
			Test: tc, Kind: "sc-unreachable", Iter: -1,
			Regs: want[i].Regs, Mem: want[i].Mem, Witness: want[i].WitnessSC,
		})
	}
	return divs, nil
}

func statesEqual(want *axiom.Result, regs [][]int64, mem map[litmus.Loc]int64) bool {
	for ti := range want.Regs {
		for r := range want.Regs[ti] {
			if regs[ti][r] != want.Regs[ti][r] {
				return false
			}
		}
	}
	for loc, v := range want.Mem {
		if mem[loc] != v {
			return false
		}
	}
	return true
}

// Explain renders the full triage report for a divergence: the axiomatic
// evidence (allowed-state table, witnesses) next to a machine-event trace
// of the simulator reproducing the run with tracing enabled.
func Explain(d *Divergence, rep *axiom.Report, iters int, mode Mode, cfg Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "DIVERGENCE %s\n", d)
	b.WriteString("axiomatic TSO-allowed states:\n")
	for _, res := range rep.Results {
		tag := "tso"
		if res.SC {
			tag = "sc"
		}
		fmt.Fprintf(&b, "  [%s] %s\n", tag, formatState(res.Regs, res.Mem))
	}
	if d.Witness != nil {
		b.WriteString("axiomatic witness of the missing state:\n")
		b.WriteString(indent(d.Witness.Format()))
	}
	if d.Kind == "forbidden-state" {
		cfg.TraceSize = 256
		if res, err := runSynced(d.Test, iters, mode, cfg); err == nil && res.Trace != nil {
			b.WriteString("simulator trace (same seed, last events):\n")
			b.WriteString(indent(res.Trace.String()))
		}
	}
	return b.String()
}

func formatState(regs [][]int64, mem map[litmus.Loc]int64) string {
	var parts []string
	for ti, tr := range regs {
		for r, v := range tr {
			parts = append(parts, fmt.Sprintf("%d:r%d=%d", ti, r, v))
		}
	}
	locs := make([]litmus.Loc, 0, len(mem))
	for loc := range mem {
		locs = append(locs, loc)
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
	for _, loc := range locs {
		parts = append(parts, fmt.Sprintf("[%s]=%d", loc, mem[loc]))
	}
	return strings.Join(parts, " ")
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "  " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
