package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer()
	srv.CheckpointDir = t.TempDir()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.CancelAll()
		ts.Close()
	})
	return srv, ts
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d: %s", url, resp.StatusCode, wantStatus, body)
	}
	out := map[string]any{}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("GET %s returned non-JSON %q: %v", url, body, err)
	}
	return out
}

func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	out := map[string]any{}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("POST %s returned non-JSON %q: %v", url, raw, err)
	}
	return resp.StatusCode, out
}

// pollState polls the status endpoint until the run leaves StateRunning.
func pollState(t *testing.T, ts *httptest.Server, id string, deadline time.Duration) string {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		st := getJSON(t, ts.URL+"/campaigns/"+id, http.StatusOK)
		if state := st["state"].(string); state != StateRunning {
			return state
		}
		if time.Now().After(stop) {
			t.Fatalf("campaign %s still running after %v", id, deadline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServerLifecycle submits a campaign over the whole testdata suite
// (40 tests, well past the 10-test bar) and exercises the observable
// surface while it runs: health, aggregate metrics, status, the
// 409-until-done results gate, and the final merged results.
func TestServerLifecycle(t *testing.T) {
	_, ts := newTestServer(t)

	spec := `{
		"name": "suite-sweep",
		"dir": "../../testdata/suite",
		"tools": ["litmus7-user", "perple-heur"],
		"iterations": 20000,
		"shard_size": 5000,
		"seed": 7
	}`
	code, sub := postJSON(t, ts.URL+"/campaigns", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %v", code, sub)
	}
	id := sub["id"].(string)
	if jobs := sub["jobs"].(float64); jobs < 10 {
		t.Fatalf("campaign expanded only %v jobs", jobs)
	}

	// Liveness and metrics must answer while the campaign is in flight.
	if hz := getJSON(t, ts.URL+"/healthz", http.StatusOK); hz["status"] != "ok" {
		t.Fatalf("healthz = %v", hz)
	}
	m := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	if m["campaigns"].(float64) != 1 {
		t.Fatalf("metrics campaigns = %v", m["campaigns"])
	}
	sched, ok := m["scheduler"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing scheduler block: %v", m)
	}
	for _, key := range []string{"jobs_total", "jobs_completed", "retries", "queue_depth", "iterations_per_sec",
		"allocs", "allocs_per_iter", "alloc_bytes", "alloc_bytes_per_iter"} {
		if _, ok := sched[key]; !ok {
			t.Fatalf("scheduler metrics missing %q: %v", key, sched)
		}
	}

	// While the run is observably in flight, results must 409. The
	// campaign may legitimately finish between the status check and the
	// results request (the scheduler clears this suite in well under a
	// second), so a 200 is accepted iff the run is done by then.
	st := getJSON(t, ts.URL+"/campaigns/"+id, http.StatusOK)
	if st["state"] == StateRunning {
		resp, err := http.Get(ts.URL + "/campaigns/" + id + "/results")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusConflict:
			// Still running: the gate held.
		case http.StatusOK:
			if state := getJSON(t, ts.URL+"/campaigns/"+id, http.StatusOK)["state"]; state != StateDone {
				t.Fatalf("results = 200 while campaign state = %v", state)
			}
		default:
			t.Fatalf("results while running = %d, want 409 (or 200 once done)", resp.StatusCode)
		}
	}

	if state := pollState(t, ts, id, 2*time.Minute); state != StateDone {
		t.Fatalf("campaign finished in state %q", state)
	}

	res := getJSON(t, ts.URL+"/campaigns/"+id+"/results", http.StatusOK)
	totals := res["totals"].(map[string]any)
	if totals["iterations"].(float64) <= 0 {
		t.Fatalf("done campaign reports no iterations: %v", totals)
	}
	if groups := res["groups"].([]any); len(groups) < 10 {
		t.Fatalf("results carry only %d groups", len(groups))
	}
	if fails := res["failures"].([]any); len(fails) != 0 {
		t.Fatalf("campaign had failures: %v", fails)
	}

	// The listing includes the finished run.
	list := getJSON(t, ts.URL+"/campaigns", http.StatusOK)
	if runs := list["campaigns"].([]any); len(runs) != 1 {
		t.Fatalf("listing = %v", list)
	}
}

func TestServerCancel(t *testing.T) {
	_, ts := newTestServer(t)

	// A budget big enough that the run cannot finish before the cancel
	// lands (the whole suite at 2M iterations per test/tool pair).
	spec := `{
		"dir": "../../testdata/suite",
		"tools": ["litmus7-user"],
		"iterations": 2000000,
		"shard_size": 10000
	}`
	code, sub := postJSON(t, ts.URL+"/campaigns", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %v", code, sub)
	}
	id := sub["id"].(string)

	if code, body := postJSON(t, ts.URL+"/campaigns/"+id+"/cancel", ""); code != http.StatusOK {
		t.Fatalf("cancel = %d: %v", code, body)
	}
	if state := pollState(t, ts, id, 30*time.Second); state != StateCancelled {
		t.Fatalf("cancelled campaign ended in state %q", state)
	}
	// Once cancelled, partial results are served rather than 409.
	res := getJSON(t, ts.URL+"/campaigns/"+id+"/results", http.StatusOK)
	if res["state"] != StateCancelled {
		t.Fatalf("results state = %v", res["state"])
	}
}

func TestServerRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{
		`{nope`,
		`{"tools": ["litmus7-warp"]}`,
		`{"bogus_field": true}`,
		`{"tests": ["no-such-test"]}`,
	} {
		code, resp := postJSON(t, ts.URL+"/campaigns", body)
		if code != http.StatusBadRequest {
			t.Errorf("submit %q = %d (%v), want 400", body, code, resp)
		}
		if msg, _ := resp["error"].(string); msg == "" {
			t.Errorf("submit %q carried no error message", body)
		}
	}
}

func TestServerUnknownCampaign(t *testing.T) {
	_, ts := newTestServer(t)
	getJSON(t, ts.URL+"/campaigns/c9999", http.StatusNotFound)
	getJSON(t, ts.URL+"/campaigns/c9999/results", http.StatusNotFound)
	if code, _ := postJSON(t, ts.URL+"/campaigns/c9999/cancel", ""); code != http.StatusNotFound {
		t.Fatalf("cancel unknown = %d", code)
	}
}

func TestServerMethodRouting(t *testing.T) {
	_, ts := newTestServer(t)
	// Wrong-method requests must not fall through to other handlers.
	resp, err := http.Get(fmt.Sprintf("%s/campaigns/%s/cancel", ts.URL, "c0001"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET cancel = %d, want 405", resp.StatusCode)
	}
}

// TestServerDispatchRunsStartNoGoroutine: a dispatch-mode campaign is
// served by its dispatcher alone, and its status is read from the
// dispatcher once it finishes, so submitting campaigns that never
// finish and dropping the server leaves no goroutine behind.
func TestServerDispatchRunsStartNoGoroutine(t *testing.T) {
	const campaigns = 8
	baseline := runtime.NumGoroutine()
	func() {
		h := NewServer().Handler()
		for i := 0; i < campaigns; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/campaigns?mode=dispatch",
				strings.NewReader(`{"tests":["sb"],"tools":["litmus7-user"],"iterations":100}`)))
			if rec.Code != http.StatusAccepted {
				t.Fatalf("submit = %d: %s", rec.Code, rec.Body)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/campaigns/c0001", nil))
		if !strings.Contains(rec.Body.String(), `"state": "running"`) {
			t.Fatalf("unfinished dispatch campaign status: %s", rec.Body)
		}
	}() // the server is dropped here
	runtime.GC()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > baseline && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > baseline {
		t.Fatalf("%d goroutines after %d dispatch submissions, %d before", n, campaigns, baseline)
	}
}
