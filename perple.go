// Package perple is the public API of the PerpLE reproduction: perpetual
// litmus testing for memory consistency, after "PerpLE: Improving the
// Speed and Effectiveness of Memory Consistency Testing" (MICRO 2020).
//
// The package re-exports the library's stable surface:
//
//   - litmus tests: building, parsing, printing, the Table II suite
//     (Suite, SuiteTest, ParseLitmus, FormatLitmus, NewTest helpers);
//   - memory-model checking: Allowed and AllowedOutcomes under SC,
//     x86-TSO and PSO (the axiomatic checker, used to classify targets);
//   - the Converter: Convert, ConvertOutcome, generated artifacts
//     (GeneratedFiles);
//   - the counters: NewCounter/NewTargetCounter with CountExhaustive
//     (Algorithm 1) and CountHeuristic (Algorithm 2), each one walk on
//     the calling goroutine, as in the paper;
//   - the harnesses: RunLitmus7 (five synchronization modes) and
//     RunPerpLE on the simulated x86-TSO machine, each one seeded run,
//     plus MeasureSkew;
//   - the experiment drivers regenerating the paper's tables and figures.
//
// Quick start:
//
//	test, _ := perple.SuiteTest("sb")
//	pt, _ := perple.Convert(test)
//	counter, _ := perple.NewTargetCounter(pt)
//	res, _ := perple.RunPerpLE(context.Background(), pt, counter, 10000,
//	    perple.PerpLEOptions{Heuristic: true}, perple.DefaultConfig())
//	fmt.Println("target occurrences:", res.Heuristic.Counts[0])
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package perple

import (
	"context"

	"perple/internal/axiom"
	"perple/internal/core"
	"perple/internal/experiments"
	"perple/internal/harness"
	"perple/internal/litmus"
	"perple/internal/memmodel"
	"perple/internal/sim"
)

// Model selects a memory consistency model for classification and for the
// simulated machine's Relaxation knob.
type Model = memmodel.Model

// Supported memory models.
const (
	SC  = memmodel.SC
	TSO = memmodel.TSO
	PSO = memmodel.PSO
)

// ----- litmus tests -----

// Re-exported litmus test vocabulary.
type (
	// Test is a litmus test: thread programs, initial state and a target
	// outcome.
	Test = litmus.Test
	// Thread is one thread's instruction sequence.
	Thread = litmus.Thread
	// Instr is a single load, store or fence.
	Instr = litmus.Instr
	// Loc names a shared memory location.
	Loc = litmus.Loc
	// Cond is one outcome condition (register or final-memory).
	Cond = litmus.Cond
	// Outcome is a conjunction of conditions.
	Outcome = litmus.Outcome
	// SuiteEntry pairs a suite test with its Table II classification.
	SuiteEntry = litmus.SuiteEntry
	// GenConfig configures the random test generator.
	GenConfig = litmus.GenConfig
	// EdgeSpec is one edge of a diy-style relaxation cycle.
	EdgeSpec = litmus.EdgeSpec
)

// Cycle edge kinds for FromCycle (diy-style test generation).
const (
	Rfe      = litmus.Rfe
	Fre      = litmus.Fre
	Wse      = litmus.Wse
	PodWR    = litmus.PodWR
	PodRR    = litmus.PodRR
	PodRW    = litmus.PodRW
	PodWW    = litmus.PodWW
	FencedWR = litmus.FencedWR
	FencedRR = litmus.FencedRR
	FencedRW = litmus.FencedRW
	FencedWW = litmus.FencedWW
)

// FromCycle synthesizes a litmus test from a relaxation cycle (diy-style
// generation; see internal/litmus/diy.go).
func FromCycle(name string, edges ...EdgeSpec) (*Test, error) {
	return litmus.FromCycle(name, edges...)
}

// Instruction constructors.
var (
	// Store builds a store of a positive constant to a location.
	Store = litmus.Store
	// Load builds a load from a location into a thread register.
	Load = litmus.Load
	// Fence builds a full memory fence (x86 MFENCE).
	Fence = litmus.Fence
)

// Suite returns the 34-test perpetual litmus suite of Table II.
func Suite() []SuiteEntry { return litmus.Suite() }

// SuiteTest returns a suite test by name.
func SuiteTest(name string) (*Test, error) { return litmus.SuiteTest(name) }

// ParseLitmus parses a litmus7-style x86 test file.
func ParseLitmus(src string) (*Test, error) { return litmus.Parse(src) }

// FormatLitmus renders a test in the litmus7-style format ParseLitmus
// accepts.
func FormatLitmus(t *Test) string { return litmus.Format(t) }

// ----- memory-model checking -----

// Allowed reports whether memory model m allows the outcome of the test.
// The check is exact; tests beyond its enumeration cutoff (4 threads, 8
// loads and stores) are refused with an error rather than guessed.
func Allowed(t *Test, o Outcome, m Model) (bool, error) { return axiom.Allowed(t, o, m) }

// AllowedOutcomes returns the test's register outcomes model m allows,
// under the same cutoff as Allowed.
func AllowedOutcomes(t *Test, m Model) ([]Outcome, error) { return axiom.AllowedOutcomes(t, m) }

// ----- the Converter and counters -----

type (
	// PerpetualTest is a converted litmus test: stores rewritten to
	// arithmetic sequences, no per-iteration synchronization.
	PerpetualTest = core.PerpetualTest
	// PerpetualOutcome is an outcome converted to buf-array constraints.
	PerpetualOutcome = core.PerpetualOutcome
	// Counter applies COUNT / COUNTH to run results.
	Counter = core.Counter
	// CountResult reports occurrences and frames examined.
	CountResult = core.CountResult
	// BufSet holds a perpetual run's in-memory results.
	BufSet = core.BufSet
	// SeqStore describes one store's arithmetic sequence.
	SeqStore = core.SeqStore
)

// Convert builds the perpetual counterpart of a litmus test (Table I).
func Convert(t *Test) (*PerpetualTest, error) { return core.Convert(t) }

// ConvertOutcome converts one outcome of interest (Section IV-A/B).
func ConvertOutcome(pt *PerpetualTest, o Outcome) (*PerpetualOutcome, error) {
	return core.ConvertOutcome(pt, o)
}

// NewCounter builds a counter over outcomes of interest.
func NewCounter(pt *PerpetualTest, outcomes []*PerpetualOutcome) *Counter {
	return core.NewCounter(pt, outcomes)
}

// NewTargetCounter builds a counter for the test's target outcome.
func NewTargetCounter(pt *PerpetualTest) (*Counter, error) {
	return core.NewTargetCounter(pt)
}

// GeneratedFiles renders the Converter's output artifacts: perpetual
// assembly per thread, counter source files and the parameters file.
func GeneratedFiles(pt *PerpetualTest, outcomes []*PerpetualOutcome) map[string]string {
	return core.GeneratedFiles(pt, outcomes)
}

// DecodeValue identifies the store and iteration that produced a loaded
// value (the skew-measurement insight of Section VI-B5).
func DecodeValue(pt *PerpetualTest, loc Loc, v int64) (*SeqStore, int64, bool) {
	return core.DecodeValue(pt, loc, v)
}

// Explanation narrates an outcome conversion step by step (Figures 6/8).
type Explanation = core.Explanation

// Explain converts an outcome and narrates every step of Section IV.
func Explain(pt *PerpetualTest, o Outcome) (*PerpetualOutcome, *Explanation, error) {
	return core.Explain(pt, o)
}

// ----- simulated machine and harnesses -----

type (
	// Config is the simulated machine's timing model.
	Config = sim.Config
	// Mode is a litmus7 thread-synchronization mode.
	Mode = sim.Mode
	// Litmus7Result is a litmus7-style run's tally.
	Litmus7Result = harness.Litmus7Result
	// PerpLEResult is a PerpLE run's counters and costs.
	PerpLEResult = harness.PerpLEResult
	// PerpLEOptions selects counters and workers for a PerpLE run.
	PerpLEOptions = harness.PerpLEOptions
	// Litmus7Options selects workers and trace verification for a
	// litmus7-style run.
	Litmus7Options = harness.Litmus7Options
	// SkewSample is one thread-skew observation.
	SkewSample = harness.SkewSample
	// Trace is the machine-event trace recorded when Config.TraceSize > 0.
	Trace = sim.Trace
	// TraceEvent is one recorded machine event.
	TraceEvent = sim.TraceEvent
)

// Synchronization modes (litmus7's user, userfence, pthread, timebase,
// none).
const (
	ModeUser      = sim.ModeUser
	ModeUserFence = sim.ModeUserFence
	ModePthread   = sim.ModePthread
	ModeTimebase  = sim.ModeTimebase
	ModeNone      = sim.ModeNone
)

// DefaultConfig returns the calibrated simulator timing model.
func DefaultConfig() Config { return sim.DefaultConfig() }

// RunLitmus7 runs n synchronized iterations litmus7-style, seeded by
// cfg, and tallies outcomes; the zero Litmus7Options is an unverified
// run.
func RunLitmus7(ctx context.Context, t *Test, n int, mode Mode, outcomes []Outcome, cfg Config, opts Litmus7Options) (*Litmus7Result, error) {
	return harness.RunLitmus7(ctx, t, n, mode, outcomes, cfg, opts)
}

// RunPerpLE runs n synchronization-free iterations of a perpetual test,
// seeded by cfg, and applies the selected outcome counters of c.
func RunPerpLE(ctx context.Context, pt *PerpetualTest, c *Counter, n int, opts PerpLEOptions, cfg Config) (*PerpLEResult, error) {
	return harness.RunPerpLE(ctx, pt, c, n, opts, cfg)
}

// ----- compiled tests and reusable runners -----

type (
	// CompiledTest is a litmus test lowered for the simulator, shareable
	// across runners and goroutines.
	CompiledTest = sim.CompiledTest
	// Litmus7Runner reruns one compiled test with zero steady-state
	// allocation; not safe for concurrent use.
	Litmus7Runner = harness.Litmus7Runner
)

// MeasureSkew extracts thread-skew samples from a perpetual run.
func MeasureSkew(pt *PerpetualTest, bs *BufSet) []SkewSample {
	return harness.MeasureSkew(pt, bs)
}

// ----- experiments -----

// ExperimentOptions configures the paper-evaluation drivers.
type ExperimentOptions = experiments.Options

// Experiment drivers regenerating the paper's evaluation; each writes a
// plain-text report to w and returns a structured result.
var (
	ExperimentTableII     = experiments.TableII
	ExperimentFig9        = experiments.Fig9
	ExperimentFig10       = experiments.Fig10
	ExperimentFig11       = experiments.Fig11
	ExperimentFig12       = experiments.Fig12
	ExperimentFig13       = experiments.Fig13
	ExperimentAccuracy    = experiments.HeuristicAccuracy
	ExperimentOverall     = experiments.Overall
	ExperimentFaultInject = experiments.FaultInjection
)
