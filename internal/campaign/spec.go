// Package campaign is the suite-scale orchestration layer: it turns a
// campaign spec — a set of litmus tests × machine presets × testing
// tools × an iteration budget — into sharded jobs with deterministic
// per-shard seeds, leases them to executors with panic recovery and
// bounded retries, merges per-shard results associatively into campaign
// totals, and checkpoints progress so a killed campaign resumes where it
// left off with identical final totals.
//
// One engine, the Dispatcher, runs every campaign; it has two
// transports. Campaign.Run drives it with in-process executors
// (perple suite and perple serve's local mode), and
// fleet workers reach it over HTTP (perple serve's dispatch mode and
// perple worker).
package campaign

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"perple/internal/litmus"
	"perple/internal/sim"
)

// Spec describes one campaign. The zero value is not runnable; Validate
// applies defaults (see the field comments) and checks the rest.
type Spec struct {
	// Name labels the campaign in checkpoints and server listings.
	Name string `json:"name,omitempty"`

	// Dir is a directory of .litmus files; empty selects the built-in
	// Table II suite plus the non-convertible examples.
	Dir string `json:"dir,omitempty"`

	// Tests, when non-empty, restricts the corpus to these test names.
	Tests []string `json:"tests,omitempty"`

	// Tools are the testing tools to sweep: perple-heur, perple-exh,
	// litmus7-{user,userfence,pthread,timebase,none}, or mixed (PerpLE
	// where convertible, litmus7-user elsewhere). Default: perple-heur.
	Tools []string `json:"tools,omitempty"`

	// Presets are the sim machine presets to sweep. Default: default.
	Presets []string `json:"presets,omitempty"`

	// Seed is the campaign base seed; per-shard seeds are derived from it
	// deterministically. Default: 1.
	Seed int64 `json:"seed,omitempty"`

	// Iterations is the per-(test, tool, preset) iteration budget.
	// Default: 10000.
	Iterations int `json:"iterations,omitempty"`

	// ShardSize splits each budget into jobs of at most this many
	// iterations. Default: Iterations (one shard per combination).
	ShardSize int `json:"shard_size,omitempty"`

	// ExhCap bounds the exhaustive counter's iterations per shard
	// (perple-exh only); 0 means DefaultExhCap, negative means uncapped.
	ExhCap int `json:"exh_cap,omitempty"`

	// MaxRetries bounds how many times a failing job is re-attempted
	// before it is recorded as a failure. Default: 2.
	MaxRetries int `json:"max_retries,omitempty"`

	// Workers sizes the worker pool; 0 selects GOMAXPROCS.
	Workers int `json:"workers,omitempty"`

	// IntraWorkers splits each job into IntraWorkers substreams over
	// sim.WorkerSeed seeds, run in sequence on the executor's one runner
	// and counter (harness Litmus7Options.Workers and
	// PerpLEOptions.Workers). It adds no parallelism: Workers does that.
	// Unlike Workers it is result-affecting (a k-way split equals the
	// merge of k derived-seed subshards, not the serial shard), so
	// checkpoints record it and a resume must keep it. Default: 1.
	IntraWorkers int `json:"intra_workers,omitempty"`

	// Axiom selects what the static axiomatic checker (internal/axiom)
	// does with each corpus test's declared target at campaign
	// construction: AxiomWarn (the default) classifies every target and
	// records the result alongside the campaign; AxiomReject additionally
	// drops tests whose target is statically forbidden or unsatisfiable
	// from job expansion — iterations spent on them can only ever detect
	// simulator conformance bugs, never memory-model behaviour; AxiomOff
	// skips the analysis. Tests beyond the checker's exact-enumeration
	// cutoff are never rejected, only annotated. Because AxiomReject
	// changes the job list, the policy is part of the spec's checkpoint
	// identity.
	Axiom string `json:"axiom,omitempty"`

	// TraceVerify enables streaming witness-trace verification on the
	// litmus7 jobs of this campaign: "" or "off" disables it (the
	// default), "all" verifies every iteration, and a decimal stride k ≥
	// 1 verifies every k-th iteration against x86-TSO with the
	// near-linear checker in internal/trace. Verification is a pure
	// observer — it never changes simulation results or the campaign's
	// canonical document, only the verification tallies and the /metrics
	// families — but checkpoints record the setting so a resumed campaign
	// keeps counting against the same stride. PerpLE-tool jobs have no
	// per-iteration rf/co witness and skip verification.
	TraceVerify string `json:"trace_verify,omitempty"`
}

// Axiom policy values for Spec.Axiom.
const (
	AxiomOff    = "off"
	AxiomWarn   = "warn"
	AxiomReject = "reject"
)

// Spec defaults, applied by Validate.
const (
	DefaultIterations = 10000
	DefaultMaxRetries = 2
	DefaultExhCap     = 2000
)

// Validate applies defaults in place and rejects inconsistent specs.
func (s *Spec) Validate() error {
	if len(s.Tools) == 0 {
		s.Tools = []string{"perple-heur"}
	}
	if len(s.Presets) == 0 {
		s.Presets = []string{"default"}
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Iterations == 0 {
		s.Iterations = DefaultIterations
	}
	if s.Iterations < 0 {
		return fmt.Errorf("campaign: negative iteration budget %d", s.Iterations)
	}
	if s.ShardSize == 0 {
		s.ShardSize = s.Iterations
	}
	if s.ShardSize < 0 {
		return fmt.Errorf("campaign: negative shard size %d", s.ShardSize)
	}
	if s.MaxRetries == 0 {
		s.MaxRetries = DefaultMaxRetries
	}
	if s.MaxRetries < 0 {
		s.MaxRetries = 0
	}
	if s.ExhCap == 0 {
		s.ExhCap = DefaultExhCap
	}
	if s.Workers <= 0 {
		s.Workers = runtime.GOMAXPROCS(0)
	}
	if s.IntraWorkers <= 0 {
		s.IntraWorkers = 1
	}
	if s.Axiom == "" {
		s.Axiom = AxiomWarn
	}
	switch s.Axiom {
	case AxiomOff, AxiomWarn, AxiomReject:
	default:
		return fmt.Errorf("campaign: unknown axiom policy %q (want off, warn, or reject)", s.Axiom)
	}
	if _, err := ParseTraceVerify(s.TraceVerify); err != nil {
		return err
	}
	for _, tool := range s.Tools {
		if err := validateTool(tool); err != nil {
			return err
		}
	}
	for _, preset := range s.Presets {
		if _, err := sim.Preset(preset); err != nil {
			return err
		}
	}
	return nil
}

// ParseTraceVerify resolves a Spec.TraceVerify value to a sampling
// stride: 0 for off, 1 for "all" or "1", k for a decimal "k" ≥ 1.
// Unlike the other spec knobs the empty value stays off rather than
// being default-filled: verification costs real time per sampled
// iteration and must be an explicit opt-in.
func ParseTraceVerify(v string) (int, error) {
	switch v {
	case "", "off":
		return 0, nil
	case "all":
		return 1, nil
	}
	k, err := strconv.Atoi(v)
	if err != nil || k < 1 {
		return 0, fmt.Errorf("campaign: bad trace_verify %q (want off, all, or a stride ≥ 1)", v)
	}
	return k, nil
}

// TraceVerifyEvery is the spec's resolved witness-sampling stride (0 =
// verification off). Call only after Validate.
func (s *Spec) TraceVerifyEvery() int {
	k, _ := ParseTraceVerify(s.TraceVerify)
	return k
}

func validateTool(tool string) error {
	switch {
	case tool == "perple-heur" || tool == "perple-exh" || tool == "mixed":
		return nil
	case strings.HasPrefix(tool, "litmus7-"):
		_, err := sim.ParseMode(strings.TrimPrefix(tool, "litmus7-"))
		return err
	default:
		return fmt.Errorf("campaign: unknown tool %q (want perple-heur, perple-exh, mixed, or litmus7-<mode>)", tool)
	}
}

// ParseSpec decodes and validates a JSON spec.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("campaign: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadSpec reads and validates a JSON spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	return ParseSpec(data)
}

// Corpus resolves the spec's test set: the built-in suite or the .litmus
// files directly in Dir, optionally filtered by Tests, sorted by name so
// job expansion is deterministic. Dir is listed one level deep, not
// walked: fleets and checkpoints share the spec, so the test set a Dir
// names must not change.
func (s *Spec) Corpus() ([]*litmus.Test, error) {
	var tests []*litmus.Test
	if s.Dir == "" {
		tests = litmus.Builtin()
	} else {
		entries, err := os.ReadDir(s.Dir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".litmus") {
				continue
			}
			test, err := litmus.ParseFile(filepath.Join(s.Dir, e.Name()))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", e.Name(), err)
			}
			tests = append(tests, test)
		}
	}
	if len(s.Tests) > 0 {
		want := make(map[string]bool, len(s.Tests))
		for _, name := range s.Tests {
			want[name] = true
		}
		var kept []*litmus.Test
		for _, t := range tests {
			if want[t.Name] {
				kept = append(kept, t)
				delete(want, t.Name)
			}
		}
		if len(want) > 0 {
			missing := make([]string, 0, len(want))
			for name := range want {
				missing = append(missing, name)
			}
			sort.Strings(missing)
			return nil, fmt.Errorf("campaign: tests not in corpus: %v", missing)
		}
		tests = kept
	}
	sort.Slice(tests, func(i, j int) bool { return tests[i].Name < tests[j].Name })
	if len(tests) == 0 {
		return nil, fmt.Errorf("campaign: empty corpus")
	}
	return tests, nil
}

// Job is one schedulable unit: one shard of one (test, tool, preset)
// combination, with a deterministic seed derived from the campaign seed
// and the shard's identity — never from its execution order.
type Job struct {
	ID     int    `json:"id"`
	Test   string `json:"test"`
	Tool   string `json:"tool"`
	Preset string `json:"preset"`
	Shard  int    `json:"shard"`
	N      int    `json:"n"`
	Seed   int64  `json:"seed"`
}

// Jobs expands the spec over the given corpus into the deterministic job
// list: tests × tools × presets × shards, in sorted-corpus order, so
// equal specs always enumerate equal jobs with equal IDs and seeds.
func (s *Spec) Jobs(tests []*litmus.Test) []Job {
	var jobs []Job
	for _, test := range tests {
		for _, tool := range s.Tools {
			for _, preset := range s.Presets {
				remaining := s.Iterations
				for shard := 0; remaining > 0; shard++ {
					n := s.ShardSize
					if n > remaining {
						n = remaining
					}
					jobs = append(jobs, Job{
						ID:     len(jobs),
						Test:   test.Name,
						Tool:   tool,
						Preset: preset,
						Shard:  shard,
						N:      n,
						Seed:   shardSeed(s.Seed, test.Name, tool, preset, shard),
					})
					remaining -= n
				}
			}
		}
	}
	return jobs
}

// shardSeed hashes the campaign seed and the shard's identity into a
// positive simulator seed. FNV-1a keeps it stable across runs and
// platforms; mixing the identity (not the job index) keeps seeds stable
// under spec edits that only append tests or tools.
func shardSeed(base int64, test, tool, preset string, shard int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%s|%d", base, test, tool, preset, shard)
	seed := int64(h.Sum64() &^ (1 << 63))
	if seed == 0 {
		seed = 1
	}
	return seed
}

// convertibleTool resolves the "mixed" pseudo-tool and the PerpLE
// fallback for a concrete test: PerpLE tools require a convertible
// target (no final-memory conditions), everything else runs litmus7.
// The returned note is non-empty when a fallback was taken.
func convertibleTool(tool string, test *litmus.Test) (string, string) {
	convertible := !test.Target.HasMemConds()
	if tool == "mixed" {
		if convertible {
			return "perple-heur", ""
		}
		return "litmus7-user", ""
	}
	if strings.HasPrefix(tool, "perple-") && !convertible {
		return "litmus7-user", "not convertible"
	}
	return tool, ""
}
