// Package harness runs litmus tests against the simulated machine in the
// two styles the PerpLE paper compares: the litmus7-equivalent iterative
// runner with five thread-synchronization modes (RunLitmus7), and the
// PerpLE runner that executes a perpetual test synchronization-free and
// applies the exhaustive and/or heuristic outcome counters (RunPerpLE).
// It also measures thread skew from perpetual run results (skew.go),
// implementing Section VI-B5 of the paper.
//
// Every result carries both simulated ticks (the deterministic runtime
// model used for the paper's speedup figures) and host wall time (used by
// the testing.B benchmarks for the genuinely algorithmic claims).
package harness

import (
	"fmt"
	"time"

	"perple/internal/litmus"
	"perple/internal/sim"
)

// Litmus7Result is the outcome of a litmus7-style run.
type Litmus7Result struct {
	Test *litmus.Test
	Mode sim.Mode
	N    int

	// Histogram maps each observed full-outcome key (litmus.Outcome.Key
	// over every register) to its occurrence count, like litmus7's
	// "Histogram" output section.
	Histogram map[string]int64

	// OutcomeCounts[i] counts iterations satisfying the i-th outcome of
	// interest passed to RunLitmus7.
	OutcomeCounts []int64

	// TargetCount counts iterations satisfying the test's target outcome.
	TargetCount int64

	// Ticks is the simulated runtime, including synchronization.
	Ticks int64
	// Wall is the host time spent simulating and tallying.
	Wall time.Duration
	// Trace holds the machine-event trace when Config.TraceSize > 0.
	Trace *sim.Trace

	// TracesVerified and TraceViolations count witnesses checked and
	// rejected when trace verification is on (see TraceVerify);
	// TraceVerifyNs is host time spent checking. TraceReports holds up
	// to the configured cap of rendered violation reports. All stay
	// zero/nil when verification is off.
	TracesVerified  int64
	TraceViolations int64
	TraceVerifyNs   int64
	TraceReports    []string
}

// compiledCond is an outcome condition resolved to flat-array offsets.
type compiledCond struct {
	mem bool
	t   int   // thread (register conds)
	off int   // register offset within the iteration block
	li  int   // location index (memory conds)
	v   int64 // expected value
}

type compiledOutcome struct{ conds []compiledCond }

// compileOutcome resolves o against a compiled test, appending its
// conditions to conds[:0] so a recompile reuses the old array.
func compileOutcome(ct *sim.CompiledTest, o litmus.Outcome, conds []compiledCond) (compiledOutcome, error) {
	t, regCounts := ct.Test(), ct.RegCounts()
	co := compiledOutcome{conds: conds[:0]}
	for _, c := range o.Conds {
		if c.IsMem() {
			li, ok := ct.LocIdx(c.Loc)
			if !ok {
				return co, fmt.Errorf("harness: %s: outcome references unknown location %q", t.Name, c.Loc)
			}
			co.conds = append(co.conds, compiledCond{mem: true, li: li, v: c.Value})
			continue
		}
		if c.Thread < 0 || c.Thread >= len(regCounts) || c.Reg < 0 || c.Reg >= regCounts[c.Thread] {
			return co, fmt.Errorf("harness: %s: outcome condition %v out of range", t.Name, c)
		}
		co.conds = append(co.conds, compiledCond{t: c.Thread, off: c.Reg, v: c.Value})
	}
	return co, nil
}

// regOnly reports whether every condition reads a register, making the
// outcome decidable from an interned histogram row alone.
func (co compiledOutcome) regOnly() bool {
	for _, c := range co.conds {
		if c.mem {
			return false
		}
	}
	return true
}

// matchWords evaluates a register-only outcome against one interned
// histogram row; wordOff[t] is thread t's word offset within the row.
func (co compiledOutcome) matchWords(w []int64, wordOff []int) bool {
	for _, c := range co.conds {
		if w[wordOff[c.t]+c.off] != c.v {
			return false
		}
	}
	return true
}

func (co compiledOutcome) match(res *sim.SyncedResult, iter int) bool {
	for _, c := range co.conds {
		if c.mem {
			if res.Mem[c.li*res.N+iter] != c.v {
				return false
			}
			continue
		}
		if res.Regs[c.t][iter*res.RegCounts[c.t]+c.off] != c.v {
			return false
		}
	}
	return true
}

func appendKeyInt(b []byte, v int64) []byte {
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	if v >= 10 {
		b = appendKeyInt(b, v/10)
	}
	return append(b, byte('0'+v%10), ',')
}
