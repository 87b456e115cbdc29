package chaos

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"perple/internal/campaign"
)

func testPicks() []pick {
	return []pick{{DropRequest, 0.2}, {Delay, 0.2}, {Truncate, 0.1}}
}

func TestScheduleDeterminism(t *testing.T) {
	a := newSchedule(7, 2)
	b := newSchedule(7, 2)
	var diffFromC int
	c := newSchedule(8, 2)
	for i := 0; i < 500; i++ {
		fa := a.next("op", testPicks())
		fb := b.next("op", testPicks())
		if fa != fb {
			t.Fatalf("draw %d: seed-7 schedules disagree: %v vs %v", i, fa, fb)
		}
		if fa != c.next("op", testPicks()) {
			diffFromC++
		}
	}
	if diffFromC == 0 {
		t.Fatal("seed 7 and seed 8 produced identical 500-draw schedules")
	}
}

func TestScheduleConsecutiveCap(t *testing.T) {
	s := newSchedule(1, 2)
	picks := []pick{{DropRequest, 1.0}}
	want := []Fault{DropRequest, DropRequest, None, DropRequest, DropRequest, None}
	for i, w := range want {
		if got := s.next("op", picks); got != w {
			t.Fatalf("draw %d: got %v, want %v", i, got, w)
		}
	}
	// The cap is per op: a different op has its own counter.
	s2 := newSchedule(1, 2)
	s2.next("a", picks)
	s2.next("a", picks)
	if got := s2.next("b", picks); got != DropRequest {
		t.Fatalf("op b first draw: got %v, want %v (cap must not leak across ops)", got, DropRequest)
	}
}

func TestScheduleNonFailingFaultsUncapped(t *testing.T) {
	s := newSchedule(3, 2)
	picks := []pick{{Delay, 1.0}}
	for i := 0; i < 10; i++ {
		if got := s.next("op", picks); got != Delay {
			t.Fatalf("draw %d: got %v, want %v (non-failing faults are never suppressed)", i, got, Delay)
		}
	}
}

const testBody = "hello, campaign"

func newCountingServer(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, testBody)
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

func chaosClient(rates Rates, maxConsecutive int) *http.Client {
	return &http.Client{Transport: New(Config{Seed: 1, Rates: rates, MaxConsecutive: maxConsecutive}, nil)}
}

func TestRoundTripperDropRequest(t *testing.T) {
	srv, hits := newCountingServer(t)
	client := chaosClient(Rates{DropRequest: 1}, 1)
	if _, err := client.Get(srv.URL + "/campaigns/c0001/lease"); err == nil {
		t.Fatal("dropped request returned no error")
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("server saw %d requests, want 0 (drop_request must fail before delivery)", n)
	}
}

func TestRoundTripperServerError(t *testing.T) {
	srv, hits := newCountingServer(t)
	client := chaosClient(Rates{ServerError: 1}, 1)
	resp, err := client.Get(srv.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("server saw %d requests, want 0 (server_error is synthesized)", n)
	}
}

func TestRoundTripperDropResponse(t *testing.T) {
	srv, hits := newCountingServer(t)
	client := chaosClient(Rates{DropResponse: 1}, 1)
	if _, err := client.Get(srv.URL + "/x"); err == nil {
		t.Fatal("dropped response returned no error")
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("server saw %d requests, want 1 (drop_response loses only the reply)", n)
	}
}

func TestRoundTripperDuplicate(t *testing.T) {
	srv, hits := newCountingServer(t)
	client := chaosClient(Rates{Duplicate: 1}, 1)
	resp, err := client.Post(srv.URL+"/x", "text/plain", strings.NewReader("payload"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(body) != testBody {
		t.Fatalf("caller's exchange damaged: body %q err %v", body, err)
	}
	if n := hits.Load(); n != 2 {
		t.Fatalf("server saw %d requests, want 2 (duplicate double-delivers)", n)
	}
}

func TestRoundTripperTruncate(t *testing.T) {
	srv, _ := newCountingServer(t)
	client := chaosClient(Rates{Truncate: 1}, 1)
	resp, err := client.Get(srv.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := testBody[:len(testBody)/2]; string(body) != want {
		t.Fatalf("truncated body = %q, want %q", body, want)
	}
}

func TestRoundTripperDelay(t *testing.T) {
	srv, hits := newCountingServer(t)
	const floor = 20 * time.Millisecond
	rt := New(Config{Seed: 1, Rates: Rates{Delay: 1}, DelayMin: floor, DelayMax: 2 * floor}, nil)
	client := &http.Client{Transport: rt}
	start := time.Now()
	resp, err := client.Get(srv.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(start); d < floor {
		t.Fatalf("request took %v, want ≥ %v", d, floor)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("server saw %d requests, want 1 (delay still delivers)", n)
	}
}

// TestRoundTripperCapGuaranteesProgress is the property the chaos soak
// leans on: a bounded retry loop always outlives the injectors.
func TestRoundTripperCapGuaranteesProgress(t *testing.T) {
	srv, hits := newCountingServer(t)
	client := chaosClient(Rates{DropRequest: 1}, 2)
	var lastErr error
	for i := 0; i < 3; i++ {
		resp, err := client.Get(srv.URL + "/x")
		if err == nil {
			drain(resp)
			lastErr = nil
			break
		}
		lastErr = err
	}
	if lastErr != nil {
		t.Fatalf("3 attempts under cap 2 never succeeded: %v", lastErr)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("server saw %d requests, want 1", n)
	}
}

func TestRoundTripperStats(t *testing.T) {
	srv, _ := newCountingServer(t)
	client := chaosClient(Rates{ServerError: 1}, 1)
	for i := 0; i < 4; i++ {
		if resp, err := client.Get(srv.URL + "/x"); err == nil {
			drain(resp)
		}
	}
	stats := client.Transport.(*RoundTripper).Stats()
	if stats["ops"] != 4 {
		t.Fatalf("ops = %d, want 4", stats["ops"])
	}
	// Cap 1 alternates fault/clean: 2 of 4 requests get the 503.
	if stats["server_error"] != 2 {
		t.Fatalf("server_error = %d, want 2 (cap 1 alternates)", stats["server_error"])
	}
}

// --- checkpoint filesystem faults ---

func testSpec(t *testing.T) campaign.Spec {
	t.Helper()
	spec := campaign.Spec{Name: "chaos-fs", Tests: []string{"sb"}, Iterations: 10}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return spec
}

func testDone() map[int]*campaign.JobResult {
	return map[int]*campaign.JobResult{
		0: {JobID: 0, Test: "sb", Tool: "perple-heur", Preset: "default", N: 10, Seed: 42, Ticks: 100},
	}
}

func TestFSTornWriteBlocksSaveThenRetrySucceeds(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/cp.json"
	spec := testSpec(t)
	fsys := NewFS(FSConfig{Seed: 1, Rates: FSRates{TornWrite: 1}, MaxConsecutive: 2})

	for i := 0; i < 2; i++ {
		err := campaign.SaveCheckpointLedgerFS(fsys, path, spec, testDone(), nil)
		if err == nil {
			t.Fatalf("save %d succeeded under torn-write rate 1", i)
		}
		if !strings.Contains(err.Error(), "torn write") {
			t.Fatalf("save %d failed with %v, want a torn-write error", i, err)
		}
	}
	if err := campaign.SaveCheckpointLedgerFS(fsys, path, spec, testDone(), nil); err != nil {
		t.Fatalf("third save (past the cap) failed: %v", err)
	}
	done, _, recovered, err := campaign.LoadCheckpointLedgerFS(NewFS(FSConfig{}), path, spec)
	if err != nil || recovered {
		t.Fatalf("load: done=%v recovered=%v err=%v", done, recovered, err)
	}
	if len(done) != 1 || done[0] == nil || done[0].Ticks != 100 {
		t.Fatalf("restored snapshot wrong: %+v", done)
	}
}

func TestFSRenameFailBlocksSaveThenRetrySucceeds(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/cp.json"
	spec := testSpec(t)
	fsys := NewFS(FSConfig{Seed: 1, Rates: FSRates{RenameFail: 1}, MaxConsecutive: 2})

	for i := 0; i < 2; i++ {
		err := campaign.SaveCheckpointLedgerFS(fsys, path, spec, testDone(), nil)
		if err == nil {
			t.Fatalf("save %d succeeded under rename-fail rate 1", i)
		}
		if !strings.Contains(err.Error(), "rename") {
			t.Fatalf("save %d failed with %v, want a rename error", i, err)
		}
	}
	if err := campaign.SaveCheckpointLedgerFS(fsys, path, spec, testDone(), nil); err != nil {
		t.Fatalf("third save (past the cap) failed: %v", err)
	}
	if _, _, _, err := campaign.LoadCheckpointLedgerFS(NewFS(FSConfig{}), path, spec); err != nil {
		t.Fatalf("load after recovery: %v", err)
	}
}

// TestFSCorruptIsSilentAndCaughtByCRC sweeps seeds: every corrupting
// save must report success (the fault is silent), and across the sweep
// at least one flipped bit must land where the CRC check catches it at
// load. A flip can land in envelope whitespace and change nothing —
// that is fine, and exactly why the assertion is over the sweep.
func TestFSCorruptIsSilentAndCaughtByCRC(t *testing.T) {
	spec := testSpec(t)
	detected := 0
	for seed := int64(1); seed <= 16; seed++ {
		dir := t.TempDir()
		path := dir + "/cp.json"
		fsys := NewFS(FSConfig{Seed: seed, Rates: FSRates{Corrupt: 1}})
		if err := campaign.SaveCheckpointLedgerFS(fsys, path, spec, testDone(), nil); err != nil {
			t.Fatalf("seed %d: corrupting save must look successful, got %v", seed, err)
		}
		_, _, recovered, err := campaign.LoadCheckpointLedgerFS(NewFS(FSConfig{}), path, spec)
		if recovered {
			t.Fatalf("seed %d: nothing to recover from on a first save", seed)
		}
		if err != nil {
			if !errors.Is(err, campaign.ErrCheckpointCorrupt) {
				t.Fatalf("seed %d: load failed with %v, want ErrCheckpointCorrupt", seed, err)
			}
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("no seed in 1..16 produced a CRC-detected corruption")
	}
}

// TestFSCorruptFallsBackToRotatedSnapshot: a good save, then a silently
// corrupting one; the loader must detect the damage and recover the
// rotated last-good snapshot.
func TestFSCorruptFallsBackToRotatedSnapshot(t *testing.T) {
	spec := testSpec(t)
	for seed := int64(1); seed <= 16; seed++ {
		dir := t.TempDir()
		path := dir + "/cp.json"
		if err := campaign.SaveCheckpointLedgerFS(NewFS(FSConfig{}), path, spec, testDone(), nil); err != nil {
			t.Fatal(err)
		}
		newer := testDone()
		newer[1] = &campaign.JobResult{JobID: 1, Test: "sb", Tool: "perple-heur", Preset: "default", N: 10, Seed: 43, Ticks: 200}
		fsys := NewFS(FSConfig{Seed: seed, Rates: FSRates{Corrupt: 1}})
		if err := campaign.SaveCheckpointLedgerFS(fsys, path, spec, newer, nil); err != nil {
			t.Fatalf("seed %d: corrupting save must look successful, got %v", seed, err)
		}
		done, _, recovered, err := campaign.LoadCheckpointLedgerFS(NewFS(FSConfig{}), path, spec)
		if err != nil {
			t.Fatalf("seed %d: load with a good rotated snapshot must not fail: %v", seed, err)
		}
		if !recovered {
			// The flip landed somewhere harmless; the newer snapshot loaded.
			if len(done) != 2 {
				t.Fatalf("seed %d: un-recovered load returned %d jobs, want 2", seed, len(done))
			}
			continue
		}
		if len(done) != 1 || done[0] == nil || done[0].Ticks != 100 {
			t.Fatalf("seed %d: recovered snapshot wrong: %+v", seed, done)
		}
		return // saw at least one real recovery; done
	}
	t.Fatal("no seed in 1..16 exercised the fallback path")
}

func TestFSStats(t *testing.T) {
	spec := testSpec(t)
	fsys := NewFS(FSConfig{Seed: 1, Rates: FSRates{TornWrite: 1}, MaxConsecutive: 1})
	path := t.TempDir() + "/cp.json"
	campaign.SaveCheckpointLedgerFS(fsys, path, spec, testDone(), nil) // torn
	campaign.SaveCheckpointLedgerFS(fsys, path, spec, testDone(), nil) // forced clean
	stats := fsys.Stats()
	if stats["torn_write"] != 1 || stats["ops"] != 2 {
		t.Fatalf("stats = %v, want torn_write=1 ops=2", stats)
	}
}
