// Unit tests of the chaos suite's fault injectors: the seeded schedule
// and its consecutive-failure cap, each HTTP transport fault, and each
// checkpoint filesystem fault against the real save and load paths.
package campaign

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func chaosTestPicks() []chaosPick {
	return []chaosPick{{faultDropRequest, 0.2}, {faultDelay, 0.2}, {faultTruncate, 0.1}}
}

func TestInjectorScheduleDeterminism(t *testing.T) {
	a := newChaosSchedule(7, 2)
	b := newChaosSchedule(7, 2)
	var diffFromC int
	c := newChaosSchedule(8, 2)
	for i := 0; i < 500; i++ {
		fa := a.next("op", chaosTestPicks())
		fb := b.next("op", chaosTestPicks())
		if fa != fb {
			t.Fatalf("draw %d: seed-7 schedules disagree: %v vs %v", i, fa, fb)
		}
		if fa != c.next("op", chaosTestPicks()) {
			diffFromC++
		}
	}
	if diffFromC == 0 {
		t.Fatal("seed 7 and seed 8 produced identical 500-draw schedules")
	}
}

func TestInjectorScheduleConsecutiveCap(t *testing.T) {
	s := newChaosSchedule(1, 2)
	picks := []chaosPick{{faultDropRequest, 1.0}}
	want := []chaosFault{faultDropRequest, faultDropRequest, faultNone, faultDropRequest, faultDropRequest, faultNone}
	for i, w := range want {
		if got := s.next("op", picks); got != w {
			t.Fatalf("draw %d: got %v, want %v", i, got, w)
		}
	}
	// The cap is per op: a different op has its own counter.
	s2 := newChaosSchedule(1, 2)
	s2.next("a", picks)
	s2.next("a", picks)
	if got := s2.next("b", picks); got != faultDropRequest {
		t.Fatalf("op b first draw: got %v, want %v (cap must not leak across ops)", got, faultDropRequest)
	}
}

func TestInjectorScheduleNonFailingFaultsUncapped(t *testing.T) {
	s := newChaosSchedule(3, 2)
	picks := []chaosPick{{faultDelay, 1.0}}
	for i := 0; i < 10; i++ {
		if got := s.next("op", picks); got != faultDelay {
			t.Fatalf("draw %d: got %v, want %v (non-failing faults are never suppressed)", i, got, faultDelay)
		}
	}
}

const chaosTestBody = "hello, campaign"

func newChaosCountingServer(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, chaosTestBody)
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

func chaosClient(rates chaosRates, maxConsecutive int) *http.Client {
	return &http.Client{Transport: newChaosRoundTripper(chaosConfig{Seed: 1, Rates: rates, MaxConsecutive: maxConsecutive}, nil)}
}

func TestInjectorRoundTripperDropRequest(t *testing.T) {
	srv, hits := newChaosCountingServer(t)
	client := chaosClient(chaosRates{DropRequest: 1}, 1)
	if _, err := client.Get(srv.URL + "/campaigns/c0001/lease"); err == nil {
		t.Fatal("dropped request returned no error")
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("server saw %d requests, want 0 (drop_request must fail before delivery)", n)
	}
}

func TestInjectorRoundTripperServerError(t *testing.T) {
	srv, hits := newChaosCountingServer(t)
	client := chaosClient(chaosRates{ServerError: 1}, 1)
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

func TestInjectorRoundTripperDropResponse(t *testing.T) {
	srv, hits := newChaosCountingServer(t)
	client := chaosClient(chaosRates{DropResponse: 1}, 1)
	if _, err := client.Get(srv.URL + "/x"); err == nil {
		t.Fatal("dropped response returned no error")
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("server saw %d requests, want 1 (drop_response loses only the reply)", n)
	}
}

func TestInjectorRoundTripperDuplicate(t *testing.T) {
	srv, hits := newChaosCountingServer(t)
	client := chaosClient(chaosRates{Duplicate: 1}, 1)
	resp, err := client.Post(srv.URL+"/x", "text/plain", strings.NewReader("payload"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(body) != chaosTestBody {
		t.Fatalf("caller's exchange damaged: body %q err %v", body, err)
	}
	if n := hits.Load(); n != 2 {
		t.Fatalf("server saw %d requests, want 2 (duplicate double-delivers)", n)
	}
}

func TestInjectorRoundTripperTruncate(t *testing.T) {
	srv, _ := newChaosCountingServer(t)
	client := chaosClient(chaosRates{Truncate: 1}, 1)
	resp, err := client.Get(srv.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := chaosTestBody[:len(chaosTestBody)/2]; string(body) != want {
		t.Fatalf("truncated body = %q, want %q", body, want)
	}
}

func TestInjectorRoundTripperDelay(t *testing.T) {
	srv, hits := newChaosCountingServer(t)
	const floor = 20 * time.Millisecond
	rt := newChaosRoundTripper(chaosConfig{Seed: 1, Rates: chaosRates{Delay: 1}, DelayMin: floor, DelayMax: 2 * floor}, nil)
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

// TestInjectorRoundTripperCapGuaranteesProgress is the property the
// chaos soak leans on: a bounded retry loop always outlives the
// injectors.
func TestInjectorRoundTripperCapGuaranteesProgress(t *testing.T) {
	srv, hits := newChaosCountingServer(t)
	client := chaosClient(chaosRates{DropRequest: 1}, 2)
	var lastErr error
	for i := 0; i < 3; i++ {
		resp, err := client.Get(srv.URL + "/x")
		if err == nil {
			chaosDrain(resp)
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

func TestInjectorRoundTripperStats(t *testing.T) {
	srv, _ := newChaosCountingServer(t)
	client := chaosClient(chaosRates{ServerError: 1}, 1)
	for i := 0; i < 4; i++ {
		if resp, err := client.Get(srv.URL + "/x"); err == nil {
			chaosDrain(resp)
		}
	}
	stats := client.Transport.(*chaosRoundTripper).Stats()
	if stats["ops"] != 4 {
		t.Fatalf("ops = %d, want 4", stats["ops"])
	}
	// Cap 1 alternates fault/clean: 2 of 4 requests get the 503.
	if stats["server_error"] != 2 {
		t.Fatalf("server_error = %d, want 2 (cap 1 alternates)", stats["server_error"])
	}
}

// --- checkpoint filesystem faults ---

func chaosFSSpec(t *testing.T) Spec {
	t.Helper()
	spec := Spec{Name: "chaos-fs", Tests: []string{"sb"}, Iterations: 10}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return spec
}

func chaosFSDone() map[int]*JobResult {
	return map[int]*JobResult{
		0: {JobID: 0, Test: "sb", Tool: "perple-heur", Preset: "default", N: 10, Seed: 42, Ticks: 100},
	}
}

func TestInjectorFSTornWriteBlocksSaveThenRetrySucceeds(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/cp.json"
	spec := chaosFSSpec(t)
	fsys := newChaosFS(chaosFSConfig{Seed: 1, Rates: chaosFSRates{TornWrite: 1}, MaxConsecutive: 2})

	for i := 0; i < 2; i++ {
		err := SaveCheckpointLedgerFS(fsys, path, spec, chaosFSDone(), nil)
		if err == nil {
			t.Fatalf("save %d succeeded under torn-write rate 1", i)
		}
		if !strings.Contains(err.Error(), "torn write") {
			t.Fatalf("save %d failed with %v, want a torn-write error", i, err)
		}
	}
	if err := SaveCheckpointLedgerFS(fsys, path, spec, chaosFSDone(), nil); err != nil {
		t.Fatalf("third save (past the cap) failed: %v", err)
	}
	done, _, recovered, err := LoadCheckpointLedgerFS(newChaosFS(chaosFSConfig{}), path, spec)
	if err != nil || recovered {
		t.Fatalf("load: done=%v recovered=%v err=%v", done, recovered, err)
	}
	if len(done) != 1 || done[0] == nil || done[0].Ticks != 100 {
		t.Fatalf("restored snapshot wrong: %+v", done)
	}
}

func TestInjectorFSRenameFailBlocksSaveThenRetrySucceeds(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/cp.json"
	spec := chaosFSSpec(t)
	fsys := newChaosFS(chaosFSConfig{Seed: 1, Rates: chaosFSRates{RenameFail: 1}, MaxConsecutive: 2})

	for i := 0; i < 2; i++ {
		err := SaveCheckpointLedgerFS(fsys, path, spec, chaosFSDone(), nil)
		if err == nil {
			t.Fatalf("save %d succeeded under rename-fail rate 1", i)
		}
		if !strings.Contains(err.Error(), "rename") {
			t.Fatalf("save %d failed with %v, want a rename error", i, err)
		}
	}
	if err := SaveCheckpointLedgerFS(fsys, path, spec, chaosFSDone(), nil); err != nil {
		t.Fatalf("third save (past the cap) failed: %v", err)
	}
	if _, _, _, err := LoadCheckpointLedgerFS(newChaosFS(chaosFSConfig{}), path, spec); err != nil {
		t.Fatalf("load after recovery: %v", err)
	}
}

// TestInjectorFSCorruptIsSilentAndCaughtByCRC sweeps seeds: every corrupting
// save must report success (the fault is silent), and across the sweep
// at least one flipped bit must land where the CRC check catches it at
// load. A flip can land in envelope whitespace and change nothing —
// that is fine, and exactly why the assertion is over the sweep.
func TestInjectorFSCorruptIsSilentAndCaughtByCRC(t *testing.T) {
	spec := chaosFSSpec(t)
	detected := 0
	for seed := int64(1); seed <= 16; seed++ {
		dir := t.TempDir()
		path := dir + "/cp.json"
		fsys := newChaosFS(chaosFSConfig{Seed: seed, Rates: chaosFSRates{Corrupt: 1}})
		if err := SaveCheckpointLedgerFS(fsys, path, spec, chaosFSDone(), nil); err != nil {
			t.Fatalf("seed %d: corrupting save must look successful, got %v", seed, err)
		}
		_, _, recovered, err := LoadCheckpointLedgerFS(newChaosFS(chaosFSConfig{}), path, spec)
		if recovered {
			t.Fatalf("seed %d: nothing to recover from on a first save", seed)
		}
		if err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("seed %d: load failed with %v, want ErrCheckpointCorrupt", seed, err)
			}
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("no seed in 1..16 produced a CRC-detected corruption")
	}
}

// TestInjectorFSCorruptFallsBackToRotatedSnapshot: a good save, then a
// silently corrupting one; the loader must detect the damage and
// recover the rotated last-good snapshot.
func TestInjectorFSCorruptFallsBackToRotatedSnapshot(t *testing.T) {
	spec := chaosFSSpec(t)
	for seed := int64(1); seed <= 16; seed++ {
		dir := t.TempDir()
		path := dir + "/cp.json"
		if err := SaveCheckpointLedgerFS(newChaosFS(chaosFSConfig{}), path, spec, chaosFSDone(), nil); err != nil {
			t.Fatal(err)
		}
		newer := chaosFSDone()
		newer[1] = &JobResult{JobID: 1, Test: "sb", Tool: "perple-heur", Preset: "default", N: 10, Seed: 43, Ticks: 200}
		fsys := newChaosFS(chaosFSConfig{Seed: seed, Rates: chaosFSRates{Corrupt: 1}})
		if err := SaveCheckpointLedgerFS(fsys, path, spec, newer, nil); err != nil {
			t.Fatalf("seed %d: corrupting save must look successful, got %v", seed, err)
		}
		done, _, recovered, err := LoadCheckpointLedgerFS(newChaosFS(chaosFSConfig{}), path, spec)
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

func TestInjectorFSStats(t *testing.T) {
	spec := chaosFSSpec(t)
	fsys := newChaosFS(chaosFSConfig{Seed: 1, Rates: chaosFSRates{TornWrite: 1}, MaxConsecutive: 1})
	path := t.TempDir() + "/cp.json"
	SaveCheckpointLedgerFS(fsys, path, spec, chaosFSDone(), nil) // torn
	SaveCheckpointLedgerFS(fsys, path, spec, chaosFSDone(), nil) // forced clean
	stats := fsys.Stats()
	if stats["torn_write"] != 1 || stats["ops"] != 2 {
		t.Fatalf("stats = %v, want torn_write=1 ops=2", stats)
	}
}
