// Package axiom is the repo's static axiomatic memory-model checker over
// the litmus.Test AST, in the style of herd ("Herding Cats", Alglave,
// Maranget, Tautschnig). It enumerates candidate executions symbolically
// — program order is fixed; every reads-from assignment and every
// per-location coherence order is a choice — and filters them against
// the axioms of a memmodel.Model, whose definition (KeepsPO and Axioms)
// lives in internal/memmodel. Analyze classifies each final-state
// outcome of a test as SCAllowed, TSOOnly (the interesting weak
// outcomes) or Forbidden; Allowed, AllowedSet and AllowedOutcomes answer
// the allowed/forbidden question under any model.
//
// The enumeration is engineered as a static pre-flight: sub-relations are
// memoized per test (program-order bitmasks, po-consistent coherence
// permutations, pruned reads-from candidate lists, from-read suffix
// masks) and all per-candidate work runs on reusable uint64 adjacency
// masks, so suite-sized tests classify in microseconds and whole corpora
// in well under a second. Enumeration is exact up to an explicit cutoff
// (Limits); above it the checker refuses with a *TooLargeError instead of
// answering inexactly, so the result is always a proof, never a sample.
// Tests cross-validate every model against the independent operational
// store-buffer machine in internal/memmodel.
package axiom

import (
	"fmt"

	"perple/internal/litmus"
	"perple/internal/memmodel"
)

// Class classifies one outcome of a litmus test against the two models.
type Class int

const (
	// Forbidden outcomes are allowed by neither SC nor x86-TSO; a
	// conforming machine never produces them, so a test targeting one is
	// statically useless (or a conformance-bug detector).
	Forbidden Class = iota
	// TSOOnly outcomes are allowed by x86-TSO but not by SC: observing
	// one witnesses store buffering. These are the targets memory
	// consistency testing is after.
	TSOOnly
	// SCAllowed outcomes are allowed by SC (hence by TSO too); observing
	// one says nothing about the memory model.
	SCAllowed
)

func (c Class) String() string {
	switch c {
	case Forbidden:
		return "forbidden"
	case TSOOnly:
		return "tso-only"
	case SCAllowed:
		return "sc-allowed"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Limits is the enumeration cutoff. Classification is exact for every
// test within the limits; beyond them Analyze returns *TooLargeError.
type Limits struct {
	// MaxThreads bounds the thread count. Zero selects the default.
	MaxThreads int
	// MaxEvents bounds the total memory events (loads + stores; fences
	// are free). Zero selects the default.
	MaxEvents int
}

// Default cutoffs: every test of the Table II suite fits (the largest,
// rfi017, has 7 events on 2 threads; iriw has 6 events on 4 threads).
const (
	DefaultMaxThreads = 4
	DefaultMaxEvents  = 8
)

// DefaultLimits returns the default enumeration cutoff.
func DefaultLimits() Limits {
	return Limits{MaxThreads: DefaultMaxThreads, MaxEvents: DefaultMaxEvents}
}

func (l Limits) withDefaults() Limits {
	if l.MaxThreads <= 0 {
		l.MaxThreads = DefaultMaxThreads
	}
	if l.MaxEvents <= 0 {
		l.MaxEvents = DefaultMaxEvents
	}
	return l
}

// TooLargeError reports a test beyond the enumeration cutoff. The checker
// refuses rather than subsampling: a partial enumeration could misreport
// an allowed outcome as Forbidden, which downstream consumers (campaign
// pre-flight, the differential oracle) treat as proof.
type TooLargeError struct {
	Test    string
	Threads int
	Events  int
	Limits  Limits
}

func (e *TooLargeError) Error() string {
	return fmt.Sprintf("axiom: %s exceeds the exact-enumeration cutoff (%d threads, %d events; limits %d threads, %d events): refusing to classify inexactly",
		e.Test, e.Threads, e.Events, e.Limits.MaxThreads, e.Limits.MaxEvents)
}

// Result is one distinct final state some axiom-consistent execution
// produces: the register file, the final memory, the models that allow
// it, and a witness execution per model.
type Result struct {
	Regs [][]int64
	Mem  map[litmus.Loc]int64
	// SC reports whether some SC-consistent execution produces this
	// state. The enumerated model (TSO for Analyze, the requested one
	// for AllowedSet) is implied true for every Result: only states it
	// allows are recorded, and SC-consistent executions are consistent
	// with every model.
	SC bool
	// WitnessWeak is the first execution producing this state that is
	// consistent with the enumerated model; WitnessSC the first
	// SC-consistent one (nil when !SC).
	WitnessWeak *Witness
	WitnessSC   *Witness
}

// OutcomeClass pairs one outcome of the test's register-outcome space
// with its classification.
type OutcomeClass struct {
	Outcome litmus.Outcome
	Class   Class
}

// TargetInfo is the analysis of the test's declared target outcome.
type TargetInfo struct {
	Class Class
	// Unsatisfiable: some condition constrains a register or location to
	// a value outside its static value domain — no candidate execution,
	// consistent or not, can produce it. (A satisfiable-but-Forbidden
	// target is not Unsatisfiable.)
	Unsatisfiable bool
	// Vacuous: every TSO-consistent execution satisfies the target, so
	// observing it carries no information.
	Vacuous bool
	// Witness is an execution exhibiting the target: an SC witness when
	// the target is SCAllowed, else a TSO witness when TSOOnly; nil when
	// Forbidden.
	Witness *Witness
}

// Report is the full static analysis of one test.
type Report struct {
	Test   *litmus.Test
	Limits Limits

	// Executions is the number of symbolic candidates enumerated
	// (reads-from assignments × coherence orders, after static pruning);
	// Consistent of those passing every TSO axiom.
	Executions int
	Consistent int

	// Results are the distinct final states allowed under TSO, in first-
	// witnessed (deterministic) order.
	Results []Result

	// Outcomes classifies the test's full register-outcome space
	// (litmus.Test.AllOutcomes order).
	Outcomes []OutcomeClass

	// Target analyzes the declared target outcome.
	Target TargetInfo

	keys map[string]int // memmodel.StateKey -> Results index
}

// Analyze classifies the test under the default cutoff.
func Analyze(t *litmus.Test) (*Report, error) {
	return AnalyzeWithLimits(t, DefaultLimits())
}

// AnalyzeWithLimits classifies the test, enumerating exactly up to lim.
func AnalyzeWithLimits(t *litmus.Test, lim Limits) (*Report, error) {
	rep, err := enumerateModel(t, lim, memmodel.TSO)
	if err != nil {
		return nil, err
	}
	rep.classifyOutcomes()
	rep.classifyTarget()
	return rep, nil
}

// enumerateModel validates the test and collects, up to lim, every final
// state the weak model allows, flagging the SC-allowed ones. The
// Report's Results then hold that model's states; only its counters and
// Results are filled.
func enumerateModel(t *litmus.Test, lim Limits, weak memmodel.Model) (*Report, error) {
	if weak.Axioms() == nil {
		return nil, fmt.Errorf("axiom: unsupported memory model %v", weak)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	lim = lim.withDefaults()
	a, err := newAnalysis(t, lim, weak)
	if err != nil {
		return nil, err
	}
	rep := &Report{Test: t, Limits: lim, keys: map[string]int{}}
	a.enumerate(rep)
	return rep, nil
}

// Allowed reports whether model m allows outcome o of test t: some
// m-consistent execution produces a final state satisfying it. Tests
// beyond the default cutoff are refused with a *TooLargeError.
func Allowed(t *litmus.Test, o litmus.Outcome, m memmodel.Model) (bool, error) {
	results, err := AllowedSet(t, m)
	return anyHolds(results, o), err
}

// AllowedSet returns the distinct final states (registers and memory)
// model m allows, under the default cutoff.
func AllowedSet(t *litmus.Test, m memmodel.Model) ([]Result, error) {
	return allowedSet(t, m, DefaultLimits())
}

// AllowedOutcomes returns the subset of the test's full register-outcome
// space (litmus.Test.AllOutcomes order) that model m allows, under the
// default cutoff.
func AllowedOutcomes(t *litmus.Test, m memmodel.Model) ([]litmus.Outcome, error) {
	results, err := AllowedSet(t, m)
	if err != nil {
		return nil, err
	}
	var out []litmus.Outcome
	for _, o := range t.AllOutcomes() {
		if anyHolds(results, o) {
			out = append(out, o)
		}
	}
	return out, nil
}

func anyHolds(results []Result, o litmus.Outcome) bool {
	for i := range results {
		if o.HoldsFull(results[i].Regs, results[i].Mem) {
			return true
		}
	}
	return false
}

// allowedSet returns the distinct final states model m allows,
// enumerating exactly up to lim.
func allowedSet(t *litmus.Test, m memmodel.Model, lim Limits) ([]Result, error) {
	rep, err := enumerateModel(t, lim, m)
	if err != nil {
		return nil, err
	}
	return rep.Results, nil
}

// Classify returns the class of an arbitrary outcome of the test.
func (r *Report) Classify(o litmus.Outcome) Class {
	cls := Forbidden
	for i := range r.Results {
		res := &r.Results[i]
		if !o.HoldsFull(res.Regs, res.Mem) {
			continue
		}
		if res.SC {
			return SCAllowed
		}
		cls = TSOOnly
	}
	return cls
}

// WitnessFor returns a witness execution exhibiting the outcome under the
// strongest model that allows it (SC first, else TSO), or nil when the
// outcome is Forbidden.
func (r *Report) WitnessFor(o litmus.Outcome) *Witness {
	var tso *Witness
	for i := range r.Results {
		res := &r.Results[i]
		if !o.HoldsFull(res.Regs, res.Mem) {
			continue
		}
		if res.SC {
			return res.WitnessSC
		}
		if tso == nil {
			tso = res.WitnessWeak
		}
	}
	return tso
}

// SCResults returns the SC-consistent subset of Results.
func (r *Report) SCResults() []Result {
	var out []Result
	for _, res := range r.Results {
		if res.SC {
			out = append(out, res)
		}
	}
	return out
}

func (r *Report) classifyOutcomes() {
	outs := r.Test.AllOutcomes()
	r.Outcomes = make([]OutcomeClass, len(outs))
	for i, o := range outs {
		r.Outcomes[i] = OutcomeClass{Outcome: o, Class: r.Classify(o)}
	}
}

func (r *Report) classifyTarget() {
	t := r.Test
	r.Target.Class = r.Classify(t.Target)
	r.Target.Unsatisfiable = targetUnsatisfiable(t)
	r.Target.Witness = r.WitnessFor(t.Target)
	if len(r.Results) > 0 {
		vac := true
		for i := range r.Results {
			if !t.Target.HoldsFull(r.Results[i].Regs, r.Results[i].Mem) {
				vac = false
				break
			}
		}
		r.Target.Vacuous = vac
	}
}

// targetUnsatisfiable checks each condition's value against its static
// value domain: a register's final value is its last load's location's
// initial value or one of the values stored there; a location's final
// value likewise. Out-of-domain conditions can never hold, regardless of
// the memory model — typically a typo in a hand-written .litmus file.
func targetUnsatisfiable(t *litmus.Test) bool {
	lastLoc := map[[2]int]litmus.Loc{}
	for ti, th := range t.Threads {
		for _, in := range th.Instrs {
			if in.Kind == litmus.OpLoad {
				lastLoc[[2]int{ti, in.Reg}] = in.Loc
			}
		}
	}
	inDomain := func(loc litmus.Loc, v int64) bool {
		if v == t.Init[loc] {
			return true
		}
		for _, sv := range t.StoreValues(loc) {
			if sv == v {
				return true
			}
		}
		return false
	}
	for _, c := range t.Target.Conds {
		if c.IsMem() {
			if !inDomain(c.Loc, c.Value) {
				return true
			}
			continue
		}
		loc, ok := lastLoc[[2]int{c.Thread, c.Reg}]
		if !ok || !inDomain(loc, c.Value) {
			return true
		}
	}
	return false
}
