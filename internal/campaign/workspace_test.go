package campaign

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perple/internal/litmus"
)

// workspaceCorpus is the built-in corpus the workspace tests draw from:
// two- and four-thread convertible tests, a fenced test, and 2+2w, whose
// memory-condition target makes PerpLE tools fall back to litmus7.
func workspaceCorpus(t testing.TB) map[string]*litmus.Test {
	t.Helper()
	camp, err := New(Spec{Tests: []string{"sb", "mp", "iriw", "safe022", "2+2w"}, Tools: []string{"litmus7-user"}, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	return camp.tests
}

// wsStep is one shard of a workspace job stream: the job, the spec
// fields runJob reads, and how the shard ends.
type wsStep struct {
	job  Job
	spec Spec
	end  string // "" runs normally; "cancel" and "panic" abort mid-run
}

func (s wsStep) String() string {
	return fmt.Sprintf("%s/%s/%s n=%d tv=%q exhcap=%d %s",
		s.job.Test, s.job.Tool, s.job.Preset, s.job.N, s.spec.TraceVerify, s.spec.ExhCap, s.end)
}

// midRunCtx lets the first Done call (the simulator's) see a live
// context and cancels on the second, so the run aborts after the
// simulation filled the workspace's arrays but before the tally.
type midRunCtx struct {
	context.Context
	calls atomic.Int32
	once  sync.Once
	ch    chan struct{}
}

func (c *midRunCtx) Done() <-chan struct{} {
	if c.calls.Add(1) >= 2 {
		c.once.Do(func() { close(c.ch) })
	}
	return c.ch
}

func (c *midRunCtx) Err() error {
	select {
	case <-c.ch:
		return context.Canceled
	default:
		return nil
	}
}

// panicCtx panics on the first Err poll, which the simulator makes
// after its event loop: the shard dies with the workspace half-updated.
type panicCtx struct{ context.Context }

func (panicCtx) Err() error { panic("injected mid-run panic") }

// TestWorkspaceMatchesFresh runs one executor workspace through a
// shuffled job stream that switches tests, tools, presets, trace
// verification and exhaustive caps, with short shards and shards
// that are cancelled or panic mid-run, and requires every result to
// equal the same job's run on a fresh workspace (wall-clock fields
// excluded).
func TestWorkspaceMatchesFresh(t *testing.T) {
	tests := workspaceCorpus(t)
	var steps []wsStep
	add := func(test, tool, preset string, n int, spec Spec) {
		shard := 0
		for _, s := range steps {
			if s.job.Test == test && s.job.Tool == tool && s.job.Preset == preset {
				shard++
			}
		}
		steps = append(steps, wsStep{
			job: Job{ID: len(steps), Test: test, Tool: tool, Preset: preset, Shard: shard, N: n,
				Seed: shardSeed(5, test, tool, preset, shard)},
			spec: spec,
		})
	}
	verify4 := Spec{TraceVerify: "4"}
	serial := Spec{}
	capped := Spec{ExhCap: 300}
	for _, test := range []string{"sb", "iriw"} {
		add(test, "litmus7-user", "default", 2000, verify4)
		add(test, "litmus7-user", "default", 2000, serial)
		add(test, "litmus7-user", "default", 2000, verify4)
		add(test, "litmus7-user", "pso", 1500, serial)
		add(test, "perple-heur", "default", 2000, serial)
		add(test, "perple-heur", "default", 2000, serial)
		add(test, "perple-exh", "default", 1000, capped)
		add(test, "perple-exh", "pso", 1000, capped)
		add(test, "perple-heur", "default", 37, serial) // a short last shard
	}
	add("mp", "perple-exh", "default", 600, serial)
	add("mp", "litmus7-none", "default", 900, serial)
	add("safe022", "perple-heur", "default", 3000, serial)
	add("safe022", "litmus7-user", "pso", 800, verify4)
	add("2+2w", "perple-heur", "default", 1200, serial)
	add("2+2w", "perple-exh", "default", 1200, verify4)
	rand.New(rand.NewSource(3)).Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })

	// Abort two shards mid-run, each a copy of a later litmus7 shard so
	// ordinary shards of its test follow whatever the abort left behind.
	// (The factorized exhaustive count polls no context, so a PerpLE
	// shard might finish despite the injection.)
	abort := func(at int, end string) {
		for strings.HasPrefix(steps[at].job.Tool, "perple-") || steps[at].job.Test == "2+2w" {
			at++
		}
		s := steps[at]
		s.end = end
		steps = append(steps[:at], append([]wsStep{s}, steps[at:]...)...)
	}
	abort(4, "cancel")
	abort(14, "panic")

	x := &jobExec{tests: tests, run: runJob}
	px := &jobExec{tests: tests, run: func(ctx context.Context, ws *workspace, job Job, test *litmus.Test, spec Spec) (*JobResult, error) {
		return runJob(panicCtx{ctx}, ws, job, test, spec)
	}}
	ws := new(workspace)
	for i, s := range steps {
		g := LeaseGrant{LeaseID: int64(i + 1), Job: s.job}
		switch s.end {
		case "cancel":
			x.spec = s.spec
			ctx := &midRunCtx{Context: context.Background(), ch: make(chan struct{})}
			if r, f := x.exec(ctx, ws, g); r.Result != nil || f != nil {
				t.Fatalf("step %d (%v): cancelled shard reported %+v / %+v", i, s, r.Result, f)
			}
			continue
		case "panic":
			px.spec = s.spec
			r, f := px.exec(context.Background(), ws, g)
			if r.Result != nil || f == nil || !strings.Contains(f.Err, "panicked") {
				t.Fatalf("step %d (%v): panicking shard reported %+v / %+v", i, s, r.Result, f)
			}
			continue
		}
		x.spec = s.spec
		r, f := x.exec(context.Background(), ws, g)
		if f != nil {
			t.Fatalf("step %d (%v): %s", i, s, f.Err)
		}
		fresh, err := runJob(context.Background(), new(workspace), s.job, tests[s.job.Test], s.spec)
		if err != nil {
			t.Fatalf("step %d (%v): fresh run: %v", i, s, err)
		}
		got := *r.Result
		got.TraceVerifyNs, fresh.TraceVerifyNs = 0, 0
		if !reflect.DeepEqual(&got, fresh) {
			t.Fatalf("step %d (%v): workspace result differs from a fresh run\nworkspace: %+v\nfresh:     %+v", i, s, got, *fresh)
		}
		if s.spec.TraceVerify != "" && got.TracesVerified == 0 && !strings.HasPrefix(s.job.Tool, "perple-") {
			t.Fatalf("step %d (%v): verification did not run", i, s)
		}
	}
}

// TestWorkspaceCanonicalAcrossExecutors runs one mixed campaign through
// every executor shape — Campaign.Run at 1 and 3 workers and a loopback
// Worker with 2 slots — and requires the canonical JSON of each to be
// byte-identical to the serial reference, which runs every job on a
// fresh workspace.
func TestWorkspaceCanonicalAcrossExecutors(t *testing.T) {
	spec := Spec{
		Tests:       []string{"sb", "mp", "iriw", "2+2w"},
		Tools:       []string{"litmus7-user", "perple-heur", "perple-exh"},
		Presets:     []string{"default", "pso"},
		Iterations:  1300,
		ShardSize:   500,
		Seed:        9,
		TraceVerify: "4",
		ExhCap:      300,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	want := serialCanonical(t, spec)
	for _, workers := range []int{1, 3} {
		s := spec
		s.Workers = workers
		camp, err := New(s)
		if err != nil {
			t.Fatal(err)
		}
		res, err := camp.Run(context.Background(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Campaign.Run at %d workers diverged from the serial reference:\nserial:\n%s\nrun:\n%s", workers, want, got)
		}
	}

	_, ts := newTestServer(t)
	id := submitDispatch(t, ts, spec)
	w := NewWorker(WorkerOptions{BaseURL: ts.URL, Campaign: id, Name: "ws", Parallel: 2, LeaseBatch: 3})
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if state := pollState(t, ts, id, 30*time.Second); state != StateDone {
		t.Fatalf("fleet campaign ended %q", state)
	}
	if got := fetchCanonical(t, ts, id); !bytes.Equal(got, want) {
		t.Fatalf("loopback worker diverged from the serial reference:\nserial:\n%s\nfleet:\n%s", want, got)
	}
}

// warmShard returns a runJob call on a workspace that has run job's
// test once, and that job.
func warmShard(tb testing.TB, test string, n int) (func(Job) *JobResult, Job) {
	tb.Helper()
	tests := workspaceCorpus(tb)
	spec := Spec{TraceVerify: "16"}
	job := Job{Test: test, Tool: "litmus7-user", Preset: "default", N: n, Seed: 1}
	ws := new(workspace)
	run := func(j Job) *JobResult {
		jr, err := runJob(context.Background(), ws, j, tests[j.Test], spec)
		if err != nil {
			tb.Fatal(err)
		}
		return jr
	}
	run(job)
	return run, job
}

// TestWorkspaceShardAllocBudget pins the tentpole's claim: once a
// workspace has run a test, another 10k-iteration shard of it allocates
// only what the campaign keeps (the JobResult and its histogram copy)
// plus small per-run change, not the ~575 KB of cells, registers,
// witness and ring arrays a fresh run allocates.
func TestWorkspaceShardAllocBudget(t *testing.T) {
	const budget = 16 << 10
	run, job := warmShard(t, "sb", 10000)
	// The smallest of several shards' deltas: TotalAlloc is process-wide,
	// so a stray goroutine of an earlier test can only inflate one.
	least := uint64(math.MaxUint64)
	for i := 0; i < 8; i++ {
		job.Seed = int64(i + 2)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(job)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > budget {
		t.Fatalf("warmed same-test shard allocates %d B, budget %d B", least, budget)
	}
}

// BenchmarkRunShard times one 10k-iteration litmus7-user shard with
// stride-16 trace verification through the real runJob on a warmed
// workspace: another shard of the same test, and a switch between two
// tests that re-points the workspace's arrays.
func BenchmarkRunShard(b *testing.B) {
	b.Run("same-test", func(b *testing.B) {
		run, job := warmShard(b, "sb", 10000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			job.Seed = int64(i + 2)
			run(job)
		}
	})
	b.Run("test-switch", func(b *testing.B) {
		run, job := warmShard(b, "sb", 10000)
		other := job
		other.Test = "iriw"
		run(other)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := job
			if i%2 == 1 {
				j = other
			}
			j.Seed = int64(i + 2)
			run(j)
		}
	})
}
