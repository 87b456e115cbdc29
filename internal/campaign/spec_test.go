package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"perple/internal/litmus"
)

func TestSpecDefaults(t *testing.T) {
	var s Spec
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Tools, []string{"perple-heur"}) {
		t.Fatalf("default tools = %v", s.Tools)
	}
	if !reflect.DeepEqual(s.Presets, []string{"default"}) {
		t.Fatalf("default presets = %v", s.Presets)
	}
	if s.Iterations != DefaultIterations || s.ShardSize != DefaultIterations {
		t.Fatalf("default budget = %d/%d", s.Iterations, s.ShardSize)
	}
	if s.Seed != 1 || s.MaxRetries != DefaultMaxRetries || s.Workers <= 0 {
		t.Fatalf("defaults: seed=%d retries=%d workers=%d", s.Seed, s.MaxRetries, s.Workers)
	}
}

func TestSpecRejectsBadInput(t *testing.T) {
	for _, s := range []Spec{
		{Tools: []string{"nonsense"}},
		{Tools: []string{"litmus7-warp"}},
		{Presets: []string{"hyperdrive"}},
		{Iterations: -5},
		{ShardSize: -1},
	} {
		s := s
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v validated", s)
		}
	}
	if _, err := ParseSpec([]byte(`{"iterations": 10, "bogus_field": 1}`)); err == nil {
		t.Error("unknown spec field accepted")
	}
	if _, err := ParseSpec([]byte(`{`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	for _, body := range []string{
		`{"iterations":5} {"bogus_field":1} not json`,
		`{"iterations":5} {}`,
		`{"iterations":5} x`,
	} {
		if _, err := ParseSpec([]byte(body)); err == nil {
			t.Errorf("spec with trailing data accepted: %s", body)
		}
	}
	if _, err := ParseSpec([]byte("{\"iterations\":5}\n\t ")); err != nil {
		t.Errorf("trailing whitespace refused: %v", err)
	}
}

// TestSpecIntraWorkersDefault: a job is one seeded run, so 0 and 1 are
// accepted as 1 and any split is refused with a pointer at shard_size.
func TestSpecIntraWorkersDefault(t *testing.T) {
	for _, tc := range []struct {
		intra int
		ok    bool
	}{{0, true}, {1, true}, {3, false}} {
		s := Spec{IntraWorkers: tc.intra}
		err := s.Validate()
		switch {
		case tc.ok && (err != nil || s.IntraWorkers != 1):
			t.Errorf("intra_workers %d: IntraWorkers %d, err %v; want 1, nil", tc.intra, s.IntraWorkers, err)
		case !tc.ok && (err == nil || !strings.Contains(err.Error(), "shard_size")):
			t.Errorf("intra_workers %d: err %v, want a refusal naming shard_size", tc.intra, err)
		}
	}
}

// TestCheckpointRefusesIntraWorkersChange: a checkpoint that recorded a
// split job (intra_workers 3) is refused at load instead of resumed
// with different totals; a changed worker count still resumes.
func TestCheckpointRefusesIntraWorkersChange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.json")
	spec := Spec{Tests: []string{"sb"}, Iterations: 400, ShardSize: 200}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(path, spec, nil); err != nil {
		t.Fatal(err)
	}
	relaxed := spec
	relaxed.Workers = 9
	if _, _, _, err := LoadCheckpointLedgerFS(osCheckpointFS{}, path, relaxed); err != nil {
		t.Fatalf("worker-count change refused: %v", err)
	}
	split := spec
	split.IntraWorkers = 3
	if err := SaveCheckpoint(path, split, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadCheckpointLedgerFS(osCheckpointFS{}, path, spec); err == nil || !strings.Contains(err.Error(), "intra_workers 3") {
		t.Fatalf("checkpoint with intra_workers 3 loaded: err %v", err)
	}
}

// TestSpecNoRetriesSurvivesNew: "max_retries": -1 means one attempt,
// through ParseSpec, a JSON round trip and campaign.New's second
// Validate: a job that always fails is dead-lettered after exactly one
// run.
func TestSpecNoRetriesSurvivesNew(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"tests":["sb"],"iterations":100,"max_retries":-1}`))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if spec, err = ParseSpec(data); err != nil {
		t.Fatal(err)
	}
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	res, err := camp.Run(context.Background(), Options{
		runJob: func(context.Context, *workspace, Job, *litmus.Test, Spec) (*JobResult, error) {
			runs.Add(1)
			return nil, errors.New("always fails")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 || len(res.Failures) != 1 || res.Failures[0].Attempts != 1 {
		t.Fatalf("max_retries -1: %d runs, failures %+v; want one run, one failure after 1 attempt", runs.Load(), res.Failures)
	}
}

// FuzzParseSpec feeds arbitrary bytes to ParseSpec, the decoder behind
// POST /campaigns. Whatever it accepts must be a fixed point of
// Validate and survive json.Marshal → ParseSpec unchanged, so a spec
// means the same after a checkpoint, a WAL header or a worker's corpus
// fetch re-reads it.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"max_retries":-1}`,
		`{"max_retries":0,"intra_workers":1,"workers":3}`,
		`{"intra_workers":3}`,
		`{"tests":[],"tools":["mixed"],"presets":["pso","default"]}`,
		`{"name":"x","dir":"testdata/suite","seed":-7,"iterations":5,"shard_size":2,"exh_cap":-1}`,
		`{"axiom":"reject","trace_verify":"all"}`,
		`{"trace_verify":"+4","tools":["litmus7-timebase"]}`,
		`{"iterations":5} {"bogus_field":1} not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		again := s
		if err := again.Validate(); err != nil {
			t.Fatalf("validated spec %+v fails a second Validate: %v", s, err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("Validate is not idempotent:\nfirst:  %+v\nsecond: %+v", s, again)
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSpec(enc)
		if err != nil {
			t.Fatalf("re-parsing %s: %v", enc, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("JSON round trip changed the spec:\nparsed:   %+v\nreparsed: %+v (%s)", s, back, enc)
		}
	})
}

func TestJobExpansionDeterministic(t *testing.T) {
	spec := Spec{
		Tests:      []string{"sb", "mp"},
		Tools:      []string{"perple-heur", "litmus7-user"},
		Presets:    []string{"default", "pso"},
		Iterations: 1000,
		ShardSize:  300,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	tests, err := spec.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(tests) != 2 || tests[0].Name != "mp" || tests[1].Name != "sb" {
		t.Fatalf("corpus = %v", tests)
	}

	jobs := spec.Jobs(tests)
	// 2 tests × 2 tools × 2 presets × 4 shards (300+300+300+100).
	if len(jobs) != 32 {
		t.Fatalf("expanded %d jobs, want 32", len(jobs))
	}
	var iters int
	for i, job := range jobs {
		if job.ID != i {
			t.Fatalf("job %d has ID %d", i, job.ID)
		}
		if job.Seed <= 0 {
			t.Fatalf("job %d has non-positive seed %d", i, job.Seed)
		}
		iters += job.N
	}
	if iters != 8*1000 {
		t.Fatalf("total shard iterations = %d, want 8000", iters)
	}

	again := spec.Jobs(tests)
	if !reflect.DeepEqual(jobs, again) {
		t.Fatal("job expansion is not deterministic")
	}

	// Seeds depend on shard identity, not enumeration order: appending a
	// tool must not disturb existing shards' seeds.
	wider := spec
	wider.Tools = append([]string{}, spec.Tools...)
	wider.Tools = append(wider.Tools, "litmus7-timebase")
	seedOf := func(jobs []Job) map[string]int64 {
		m := map[string]int64{}
		for _, j := range jobs {
			m[groupKey(j.Test, j.Tool, j.Preset)+string(rune(j.Shard))] = j.Seed
		}
		return m
	}
	wideSeeds := seedOf(wider.Jobs(tests))
	for key, seed := range seedOf(jobs) {
		if wideSeeds[key] != seed {
			t.Fatalf("seed for %q changed when the spec grew", key)
		}
	}

	// Distinct shards draw distinct seeds (FNV collisions over a handful
	// of shards would indicate a hashing bug).
	seen := map[int64]bool{}
	for _, j := range jobs {
		if seen[j.Seed] {
			t.Fatalf("duplicate shard seed %d", j.Seed)
		}
		seen[j.Seed] = true
	}
}

func TestCorpusFromDirectory(t *testing.T) {
	spec := Spec{Dir: "../../testdata/suite"}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	tests, err := spec.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(tests) < 30 {
		t.Fatalf("suite corpus has %d tests", len(tests))
	}
	for i := 1; i < len(tests); i++ {
		if tests[i-1].Name >= tests[i].Name {
			t.Fatalf("corpus not sorted: %q before %q", tests[i-1].Name, tests[i].Name)
		}
	}
}

func TestCorpusRejectsUnknownTestFilter(t *testing.T) {
	spec := Spec{Tests: []string{"sb", "no-such-test"}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Corpus(); err == nil {
		t.Fatal("unknown test name accepted")
	}
}
