package campaign

import (
	"context"
	"fmt"

	"perple/internal/axiom"
	"perple/internal/litmus"
)

// Campaign is an expanded spec: the resolved corpus plus the
// deterministic job list. One Campaign value supports one Run at a time.
type Campaign struct {
	Spec  Spec
	tests map[string]*litmus.Test
	jobs  []Job
	axiom map[string]TestAxiom // nil when Spec.Axiom is off
}

// TestAxiom is the static classification internal/axiom assigned to one
// corpus test's declared target at campaign construction.
type TestAxiom struct {
	// Class is "sc-allowed", "tso-only", or "forbidden"; empty when the
	// test exceeded the checker's exact-enumeration cutoff (see Note).
	Class         string `json:"class,omitempty"`
	Unsatisfiable bool   `json:"unsatisfiable,omitempty"`
	Vacuous       bool   `json:"vacuous,omitempty"`
	// Note explains why an unclassified test could not be analyzed.
	Note string `json:"note,omitempty"`
	// Excluded marks tests the reject policy dropped from job expansion.
	Excluded bool `json:"excluded,omitempty"`
}

// New validates the spec, resolves its corpus, classifies every test's
// target per the spec's axiom policy, and expands the job list.
func New(spec Spec) (*Campaign, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	tests, err := spec.Corpus()
	if err != nil {
		return nil, err
	}
	byName := make(map[string]*litmus.Test, len(tests))
	for _, t := range tests {
		if _, dup := byName[t.Name]; dup {
			return nil, fmt.Errorf("campaign: corpus defines test %q twice", t.Name)
		}
		byName[t.Name] = t
	}
	axioms, tests, err := classifyCorpus(spec, tests)
	if err != nil {
		return nil, err
	}
	// Keep the test map in step with the filtered corpus: it also feeds
	// the dispatch-mode wire corpus, and workers should never even see a
	// rejected test.
	for name, ta := range axioms {
		if ta.Excluded {
			delete(byName, name)
		}
	}
	return &Campaign{Spec: spec, tests: byName, jobs: spec.Jobs(tests), axiom: axioms}, nil
}

// classifyCorpus runs the static axiomatic checker over the corpus per
// the spec's axiom policy, returning the per-test classification (nil
// under AxiomOff) and the test list job expansion should use.
func classifyCorpus(spec Spec, tests []*litmus.Test) (map[string]TestAxiom, []*litmus.Test, error) {
	if spec.Axiom == AxiomOff {
		return nil, tests, nil
	}
	info := make(map[string]TestAxiom, len(tests))
	kept := tests
	if spec.Axiom == AxiomReject {
		kept = make([]*litmus.Test, 0, len(tests))
	}
	for _, t := range tests {
		var ta TestAxiom
		rep, err := axiom.Analyze(t)
		switch {
		case err == nil:
			ta.Class = rep.Target.Class.String()
			ta.Unsatisfiable = rep.Target.Unsatisfiable
			ta.Vacuous = rep.Target.Vacuous
		default:
			if _, tooLarge := err.(*axiom.TooLargeError); !tooLarge {
				return nil, nil, fmt.Errorf("campaign: classifying %s: %w", t.Name, err)
			}
			ta.Note = err.Error()
		}
		if spec.Axiom == AxiomReject {
			if ta.Class == axiom.Forbidden.String() || ta.Unsatisfiable {
				ta.Excluded = true
			} else {
				kept = append(kept, t)
			}
		}
		info[t.Name] = ta
	}
	if len(kept) == 0 {
		return nil, nil, fmt.Errorf("campaign: axiom policy %q rejected every corpus test", spec.Axiom)
	}
	return info, kept, nil
}

// Jobs returns the campaign's deterministic job list.
func (c *Campaign) Jobs() []Job { return append([]Job(nil), c.jobs...) }

// AxiomInfo returns the per-test static classification recorded at
// construction, keyed by test name; nil when the axiom policy is off.
func (c *Campaign) AxiomInfo() map[string]TestAxiom {
	if c.axiom == nil {
		return nil
	}
	out := make(map[string]TestAxiom, len(c.axiom))
	for name, ta := range c.axiom {
		out[name] = ta
	}
	return out
}

// runRecovered converts a panicking job into an ordinary error so one
// poisoned shard cannot take down the whole campaign.
func runRecovered(ctx context.Context, ws *workspace, job Job, test *litmus.Test, spec Spec, run jobFunc) (jr *JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			jr, err = nil, fmt.Errorf("campaign: job %d (%s/%s/%s shard %d) panicked: %v",
				job.ID, job.Test, job.Tool, job.Preset, job.Shard, r)
		}
	}()
	return run(ctx, ws, job, test, spec)
}

// validateRestored cross-checks checkpointed results against the
// expanded job list; a mismatch means the checkpoint belongs to a
// different job expansion despite the spec check, and resuming would
// corrupt the totals.
func (c *Campaign) validateRestored(done map[int]*JobResult) error {
	for id, jr := range done {
		if id < 0 || id >= len(c.jobs) {
			return fmt.Errorf("campaign: checkpoint references unknown job %d", id)
		}
		job := c.jobs[id]
		if job.Test != jr.Test || job.Tool != jr.Tool || job.Preset != jr.Preset ||
			job.Shard != jr.Shard || job.N != jr.N || job.Seed != jr.Seed {
			return fmt.Errorf("campaign: checkpoint job %d does not match the spec's job expansion", id)
		}
	}
	return nil
}
