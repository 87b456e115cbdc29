// Package experiments regenerates every table and figure of the PerpLE
// paper's evaluation (Section VII) on the simulated substrate: Table II
// (suite classification), Figure 9 (target-outcome occurrences), Figure
// 10 (runtime speedups), Figure 11 (relative detection-rate improvement
// vs iteration count), Figure 12 (thread-skew PDF), Figure 13 (outcome
// variety), the Section VII-D heuristic-accuracy check and the Section
// VII-G overall-impact numbers. Each driver returns a structured result
// and renders a plain-text report.
package experiments

import (
	"fmt"
	"runtime"

	"perple/internal/core"
	"perple/internal/harness"
	"perple/internal/litmus"
	"perple/internal/sim"
)

// Options configures an experiment run. The zero value selects the
// defaults documented on each field.
type Options struct {
	// N is the iteration count; 0 selects the experiment's paper default
	// (e.g. 10k for Figures 9/10, 1k for Figure 13, 100k for Figure 12).
	N int
	// Seed drives the simulator; 0 means 1.
	Seed int64
	// ExhaustiveCap2 / ExhaustiveCap3 bound the iterations the exhaustive
	// counter examines for TL≤2 / TL=3 tests (its cost is N^TL). 0 picks
	// defaults that keep a full suite run in seconds; negative means
	// uncapped, as in the paper.
	ExhaustiveCap2, ExhaustiveCap3 int
	// Quick shrinks sweeps (Figure 11) for fast smoke runs.
	Quick bool
	// Workers bounds the per-test fan-out of the heavier drivers (Figures
	// 9 and 10); 0 selects GOMAXPROCS. Cells are independently seeded
	// simulations, so results do not depend on the worker count.
	Workers int
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) n(def int) int {
	if o.N > 0 {
		return o.N
	}
	return def
}

func (o Options) cfg() sim.Config {
	return sim.DefaultConfig().WithSeed(o.seed())
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// exhaustiveCap returns the iteration cap for a test's exhaustive count.
func (o Options) exhaustiveCap(tl, n int) int {
	var cap int
	if tl >= 3 {
		cap = o.ExhaustiveCap3
		if cap == 0 {
			cap = 300
		}
	} else {
		cap = o.ExhaustiveCap2
		if cap == 0 {
			cap = 4000
		}
	}
	if cap < 0 || cap > n {
		cap = n
	}
	return cap
}

// Tool identifies a testing tool column in the figures.
type Tool int

const (
	ToolPerpLEExh Tool = iota
	ToolPerpLEHeur
	ToolLitmus7User
	ToolLitmus7UserFence
	ToolLitmus7Pthread
	ToolLitmus7Timebase
	ToolLitmus7None
)

// Tools lists every tool in presentation order.
var Tools = []Tool{
	ToolPerpLEExh, ToolPerpLEHeur,
	ToolLitmus7User, ToolLitmus7UserFence, ToolLitmus7Pthread,
	ToolLitmus7Timebase, ToolLitmus7None,
}

// Litmus7Tools lists only the litmus7 synchronization-mode tools.
var Litmus7Tools = []Tool{
	ToolLitmus7User, ToolLitmus7UserFence, ToolLitmus7Pthread,
	ToolLitmus7Timebase, ToolLitmus7None,
}

func (t Tool) String() string {
	switch t {
	case ToolPerpLEExh:
		return "perple-exh"
	case ToolPerpLEHeur:
		return "perple-heur"
	case ToolLitmus7User:
		return "litmus7-user"
	case ToolLitmus7UserFence:
		return "litmus7-userfence"
	case ToolLitmus7Pthread:
		return "litmus7-pthread"
	case ToolLitmus7Timebase:
		return "litmus7-timebase"
	case ToolLitmus7None:
		return "litmus7-none"
	default:
		return fmt.Sprintf("Tool(%d)", int(t))
	}
}

// Mode returns the sim mode of a litmus7 tool.
func (t Tool) Mode() (sim.Mode, bool) {
	switch t {
	case ToolLitmus7User:
		return sim.ModeUser, true
	case ToolLitmus7UserFence:
		return sim.ModeUserFence, true
	case ToolLitmus7Pthread:
		return sim.ModePthread, true
	case ToolLitmus7Timebase:
		return sim.ModeTimebase, true
	case ToolLitmus7None:
		return sim.ModeNone, true
	default:
		return 0, false
	}
}

// Measurement is one (test, tool) cell: target-outcome occurrences and
// total runtime in simulated ticks (execution plus outcome counting).
type Measurement struct {
	Target int64
	Ticks  int64
}

// runCells measures one test under each of tools. A cell is a pure
// function of (test, tool, n, seed, cap), and the perple-exh and
// perple-heur cells differ only in the counter applied to the same
// perpetual run, so one RunPerpLE serves both and they share its
// ExecTicks; each litmus7 tool runs once.
func runCells(e litmus.SuiteEntry, tools []Tool, n int, opts Options) (map[Tool]Measurement, error) {
	cfg := opts.cfg()
	out := make(map[Tool]Measurement, len(tools))
	var po harness.PerpLEOptions
	for _, tool := range tools {
		mode, ok := tool.Mode()
		switch {
		case ok:
			res, err := harness.RunLitmus7(e.Test, n, mode, nil, cfg)
			if err != nil {
				return nil, fmt.Errorf("%v: %w", tool, err)
			}
			out[tool] = Measurement{Target: res.TargetCount, Ticks: res.Ticks}
		case tool == ToolPerpLEExh:
			po.Exhaustive = true
		default:
			po.Heuristic = true
		}
	}
	if !po.Exhaustive && !po.Heuristic {
		return out, nil
	}

	pt, err := core.Convert(e.Test)
	if err != nil {
		return nil, err
	}
	counter, err := core.NewTargetCounter(pt)
	if err != nil {
		return nil, err
	}
	if po.Exhaustive {
		po.ExhaustiveCap = opts.exhaustiveCap(pt.TL(), n)
	}
	res, err := harness.RunPerpLE(pt, counter, n, po, cfg)
	if err != nil {
		return nil, err
	}
	if po.Exhaustive {
		out[ToolPerpLEExh] = Measurement{Target: res.Exhaustive.Counts[0], Ticks: res.TotalTicksExhaustive()}
	}
	if po.Heuristic {
		out[ToolPerpLEHeur] = Measurement{Target: res.Heuristic.Counts[0], Ticks: res.TotalTicksHeuristic()}
	}
	return out, nil
}
