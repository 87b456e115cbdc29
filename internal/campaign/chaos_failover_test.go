// Chaos failover soak: the durable dispatch plane's acceptance test. A
// fleet campaign runs against a dispatcher that is killed -9 (simulated:
// persistence stops, in-memory acknowledgments continue — strictly more
// adversarial than a real crash, because workers keep receiving acks the
// restarted dispatcher never heard of) at the nastiest points of the
// data path, then restarted from checkpoint + WAL, all while the nine
// existing injectors plus partial_append torture every byte written.
// The merged canonical document must come out byte-identical to the
// fault-free serial run, with zero duplicate merges and zero dead
// letters — at-least-once delivery over deterministic shards.
package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// swapFrontend is the stable URL workers dial across dispatcher
// incarnations: a handler slot that returns 503 while no dispatcher is
// installed (the restart window) and tracks in-flight requests so a
// quiesce can wait out exchanges still executing against a dead
// incarnation.
type swapFrontend struct {
	mu       sync.Mutex
	inner    http.Handler
	inflight sync.WaitGroup
}

func (f *swapFrontend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	h := f.inner
	if h == nil {
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"dispatcher restarting"}`)
		return
	}
	f.inflight.Add(1)
	f.mu.Unlock()
	defer f.inflight.Done()
	h.ServeHTTP(w, r)
}

func (f *swapFrontend) install(h http.Handler) {
	f.mu.Lock()
	f.inner = h
	f.mu.Unlock()
}

// quiesce takes the frontend down and waits for in-flight exchanges to
// drain: after it returns, nothing reaches the dead incarnation again.
func (f *swapFrontend) quiesce() {
	f.install(nil)
	f.inflight.Wait()
}

// failoverSubmit submits the spec directly against a server's handler
// (the frontend is down during restarts, exactly as a real boot-time
// resubmit would bypass the load balancer's health checks).
func failoverSubmit(t *testing.T, h http.Handler, spec Spec) string {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/campaigns?mode=dispatch", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("dispatch submit = %d: %s", rec.Code, rec.Body.Bytes())
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit response %q: %v", rec.Body.Bytes(), err)
	}
	return sub.ID
}

// TestChaosDispatcherFailoverByteIdentical kills and restarts the
// dispatcher at three adversarial points — between deciding grants and
// logging them, between the in-memory merge and its WAL append, and
// mid-compaction after the snapshot landed but before the log rotated —
// with every HTTP and filesystem injector live, and requires the final
// merged bytes to equal the fault-free serial run.
func TestChaosDispatcherFailoverByteIdentical(t *testing.T) {
	spec := soakSpec(t)
	want := soakBaseline(t, spec)

	// One chaos FS for every incarnation: the checkpoint and WAL history
	// on disk accumulates damage across restarts, as one machine's disk
	// would.
	fsys := newChaosFS(chaosFSConfig{
		Seed: 71,
		Rates: chaosFSRates{
			TornWrite: 0.1, Corrupt: 0.1, RenameFail: 0.1,
			PartialAppend: 0.25,
		},
	})
	cpDir := t.TempDir()
	walDir := t.TempDir()
	front := &swapFrontend{}
	ts := httptest.NewServer(front)
	defer ts.Close()

	newServer := func() *Server {
		srv := NewServer()
		srv.CheckpointDir = cpDir
		srv.CheckpointFS = fsys
		srv.WALDir = walDir
		srv.WALSyncEvery = 2
		srv.CheckpointEvery = 4
		srv.LeaseTTL = 400 * time.Millisecond
		return srv
	}

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	var wg sync.WaitGroup
	var workerErrs sync.Map
	spawnFleet := func(gen int) {
		for i := 0; i < 4; i++ {
			rt := newChaosRoundTripper(chaosConfig{
				Seed: int64(gen*100 + i + 1),
				Rates: chaosRates{
					DropRequest: 0.08, DropResponse: 0.08, Delay: 0.08,
					Duplicate: 0.08, Truncate: 0.08, ServerError: 0.08,
				},
				DelayMin: time.Millisecond,
				DelayMax: 5 * time.Millisecond,
			}, nil)
			name := fmt.Sprintf("failover-%d-%d", gen, i)
			opts := WorkerOptions{
				BaseURL:  ts.URL,
				Campaign: "c0001",
				Name:     name,
				Parallel: 2,
				Client:   &http.Client{Transport: rt, Timeout: 30 * time.Second},
				// RecoveryWindow keeps workers retrying through the restart
				// windows' 503s instead of burning their per-call attempt
				// budget on a dead frontend.
				RecoveryWindow: 60 * time.Second,
				BackoffBase:    5 * time.Millisecond,
			}
			// A batch of Parallel jobs keeps the many small exchanges the
			// kill schedule counts on: at the default batch the fleet
			// finishes before a later incarnation's kill point fires.
			opts.leaseBatch = 2
			w := NewWorker(opts)
			wg.Add(1)
			go func() {
				defer wg.Done()
				workerErrs.Store(name, w.Run(ctx))
			}()
		}
	}

	kills := []struct {
		point string
		nth   int32
	}{
		// Grants decided, workers will receive them, log never hears of
		// them: the restarted dispatcher must fence or re-run safely.
		{"mid-grant", 3},
		// Upload merged in memory, completion record lost: the job re-runs
		// and determinism must reproduce the lost merge byte-exactly.
		{"pre-wal-complete", 5},
		// Snapshot saved, log not yet rotated: the stale suffix replays
		// over the newer snapshot and must converge, not double-count.
		{"mid-compact", 2},
	}
	var id string
	for gen, k := range kills {
		srv := newServer()
		id = failoverSubmit(t, srv.Handler(), spec)
		srv.mu.Lock()
		run := srv.runs[id]
		srv.mu.Unlock()
		if run == nil || run.dispatcher == nil {
			t.Fatalf("incarnation %d: no dispatcher behind %s", gen, id)
		}
		d := run.dispatcher
		// Install the countdown kill before any worker traffic arrives, so
		// the schedule cannot race past the target occurrence.
		fired := make(chan struct{})
		var seen atomic.Int32
		point, nth := k.point, k.nth
		d.mu.Lock()
		d.killHook = func(p string) bool {
			if p != point {
				return false
			}
			if seen.Add(1) == nth {
				close(fired)
				return true
			}
			return false
		}
		d.mu.Unlock()
		front.install(srv.Handler())
		spawnFleet(gen)
		select {
		case <-fired:
		case <-time.After(30 * time.Second):
			t.Fatalf("incarnation %d: kill point %s (occurrence %d) never fired", gen, point, nth)
		case <-d.Finished():
			select {
			case <-fired:
				// The killed dispatcher kept acknowledging and finished in
				// memory — the adversarial case the restart must erase.
			default:
				t.Fatalf("incarnation %d: campaign finished before kill point %s fired", gen, point)
			}
		}
		if point == "mid-compact" {
			// The hook runs after a snapshot landed, so the nth firing means
			// at least n mid-run compactions saved under the doubling
			// schedule (a startup compaction that chaos made fail is not
			// counted).
			metrics := soakStatus(t, ts, id)["metrics"].(map[string]any)
			if got := metrics["wal_compactions"].(float64); got < float64(nth) {
				t.Fatalf("incarnation %d: wal_compactions = %v at the kill, want at least %d", gen, got, nth)
			}
		}
		front.quiesce()
	}

	// Final incarnation: recover once more and run to completion with no
	// kill installed. Worker generations from the killed incarnations are
	// still alive and keep talking to it — their stale-lease uploads must
	// fence, not corrupt.
	srv := newServer()
	finalID := failoverSubmit(t, srv.Handler(), spec)
	if finalID != id {
		t.Fatalf("final incarnation assigned id %q, want %q (same spec, same state dir)", finalID, id)
	}
	front.install(srv.Handler())
	spawnFleet(len(kills))
	wg.Wait()
	workerErrs.Range(func(name, err any) bool {
		if err != nil {
			t.Errorf("worker %s failed across failovers: %v", name, err)
		}
		return true
	})
	if t.Failed() {
		t.FailNow()
	}

	if state := soakWaitDone(t, ts, id, 60*time.Second); state != StateDone {
		t.Fatalf("campaign ended %q after failovers", state)
	}
	if got := soakCanonical(t, ts, id); !bytes.Equal(got, want) {
		t.Fatalf("failover run diverged from fault-free serial run:\nserial:\n%s\nfailover:\n%s", want, got)
	}
	st := soakStatus(t, ts, id)
	if dl, ok := st["dead_letters"]; ok {
		t.Fatalf("failovers quarantined jobs despite the retry budget: %v", dl)
	}
	metrics := st["metrics"].(map[string]any)
	if got := metrics["wal_replays"].(float64); got < 1 {
		t.Fatalf("final incarnation replayed no WAL (wal_replays = %v): the durable plane never engaged", got)
	}
	stats := fsys.Stats()
	if stats["partial_append"] == 0 {
		t.Fatalf("partial_append never fired; the soak did not exercise torn WAL tails: %v", stats)
	}
	t.Logf("failover soak: fs injector activity %v, wal_replays %v, duplicate_uploads %v",
		stats, metrics["wal_replays"], metrics["duplicate_uploads"])
}
