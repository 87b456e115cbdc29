package campaign

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"perple/internal/harness"
)

func sampleCompleteRequest() *CompleteRequest {
	return &CompleteRequest{
		Version: ProtocolVersion,
		Worker:  "rack2-a-4411",
		Results: []WorkerResult{
			{LeaseID: 7, Result: &JobResult{
				JobID: 3, Test: "sb", Tool: "litmus7-user", Preset: "default",
				Shard: 1, N: 1000, Seed: -12345, Target: 42, Ticks: 98765, Frames: 11,
				Histogram:      map[string]int64{"0;0;": 42, "0;1;": 958},
				Note:           "ok",
				TracesVerified: 12, TraceViolations: 1,
				TraceReports: []string{"cycle: rf;co"},
			}},
			{LeaseID: 9, Result: &JobResult{
				JobID: 4, Test: "sb", Tool: "litmus7-user", Preset: "default",
				Shard: 2, N: 1000, Seed: 999, Histogram: map[string]int64{"0;1;": 1000},
			}},
		},
		Failures:  []WorkerFailure{{LeaseID: 11, JobID: 5, Err: "simulated crash"}},
		Released:  []LeaseRef{{JobID: 6, LeaseID: 13}},
		Heartbeat: []LeaseRef{{JobID: 8, LeaseID: 15}},
		Lease:     3,
	}
}

func TestCompleteRequestBinaryRoundTrip(t *testing.T) {
	in := sampleCompleteRequest()
	want, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	frame := harness.EncodeWireBinary(nil, in)
	var out CompleteRequest
	if err := harness.DecodeWireBinary(frame, &out, 0); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(&out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("round trip mismatch:\n got %s\nwant %s", got, want)
	}
}

func TestCompleteRequestBinaryInterning(t *testing.T) {
	// A batch repeating the same test/tool/preset strings must not pay
	// for them per shard: doubling the shard count with identical
	// identity strings should grow the frame by far less than the naive
	// per-shard string cost.
	base := sampleCompleteRequest()
	small := len(harness.EncodeWireBinary(nil, base))
	for i := 0; i < 64; i++ {
		jr := *base.Results[0].Result
		jr.JobID = 100 + i
		jr.Shard = 100 + i
		base.Results = append(base.Results, WorkerResult{LeaseID: int64(100 + i), Result: &jr})
	}
	big := len(harness.EncodeWireBinary(nil, base))
	perShard := (big - small) / 64
	if naive := len("sb") + len("litmus7-user") + len("default"); perShard >= naive+40 {
		t.Fatalf("per-shard cost %dB suggests identity strings are not interned", perShard)
	}
}

// FuzzCompleteRequestWire round-trips the upload payload through both
// codecs and demands canonical-JSON equality, so the dispatcher merges
// the same values whichever codec carried them.
func FuzzCompleteRequestWire(f *testing.F) {
	f.Add("w1", int64(7), int64(3), "sb", "0;1;", int64(42), "boom")
	f.Add("", int64(0), int64(0), "", "", int64(0), "")
	f.Add("w-\x00", int64(-1), int64(1<<40), "mp", "k;", int64(-5), "err\nline")
	f.Fuzz(func(t *testing.T, worker string, leaseID, jobID int64, test, key string, count int64, errMsg string) {
		worker = strings.ToValidUTF8(worker, "�")
		test = strings.ToValidUTF8(test, "�")
		key = strings.ToValidUTF8(key, "�")
		errMsg = strings.ToValidUTF8(errMsg, "�")
		in := &CompleteRequest{Version: ProtocolVersion, Worker: worker}
		if test != "" {
			jr := &JobResult{JobID: int(jobID), Test: test, Tool: test + "-tool", N: int(count)}
			if key != "" {
				jr.Histogram = map[string]int64{key: count}
			}
			in.Results = []WorkerResult{{LeaseID: leaseID, Result: jr}}
			in.Heartbeat = []LeaseRef{{JobID: int(jobID) + 1, LeaseID: leaseID + 1}}
		}
		if errMsg != "" {
			in.Failures = []WorkerFailure{{LeaseID: leaseID, JobID: int(jobID), Err: errMsg}}
			in.Released = []LeaseRef{{JobID: int(jobID), LeaseID: leaseID}}
		}
		want, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}

		var fromBin CompleteRequest
		if err := harness.DecodeWireBinary(harness.EncodeWireBinary(nil, in), &fromBin, 0); err != nil {
			t.Fatalf("binary decode: %v", err)
		}
		if got, _ := json.Marshal(&fromBin); !bytes.Equal(got, want) {
			t.Fatalf("binary round trip:\n got %s\nwant %s", got, want)
		}

	})
}

// FuzzCompleteRequestBinaryDecode feeds arbitrary bytes to the upload
// decoder — the dispatcher's exposure surface — which must never panic.
// The seeds are an empty body, a full upload that also asks for grants,
// and a bare lease-carrying upload (nothing to report, only grants
// wanted).
func FuzzCompleteRequestBinaryDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(harness.EncodeWireBinary(nil, sampleCompleteRequest()))
	f.Add(harness.EncodeWireBinary(nil, &CompleteRequest{Version: ProtocolVersion, Worker: "w", Lease: 4}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var out CompleteRequest
		_ = harness.DecodeWireBinary(data, &out, 1<<20)
	})
}

// TestFleetWireMatrix is the byte-identity contract swept across the
// data-path knobs: every spelling of the Wire option (each selects
// PWB1, including a fleet mixing spellings per worker) and lease batch
// size must merge to exactly the serial run's canonical bytes, whatever
// the arrival order the fleet's scheduling produced.
func TestFleetWireMatrix(t *testing.T) {
	spec := fleetSpec(t)
	want := serialCanonical(t, spec)

	cases := []struct {
		name  string
		wires []string // per-worker Wire option, round-robin
		batch int
	}{
		{"auto-batch1", []string{"auto"}, 1},
		{"auto-batch8", []string{"auto"}, 8},
		{"binary-batch4", []string{"binary"}, 4},
		{"mixed-codecs", []string{"binary", "", "auto"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t)
			id := submitDispatch(t, ts, spec)

			const k = 3
			var wg sync.WaitGroup
			errs := make([]error, k)
			for i := 0; i < k; i++ {
				w := NewWorker(WorkerOptions{
					BaseURL:    ts.URL,
					Campaign:   id,
					Name:       fmt.Sprintf("w%d", i),
					Parallel:   2,
					leaseBatch: tc.batch,
					Wire:       tc.wires[i%len(tc.wires)],
				})
				wg.Add(1)
				go func(i int, w *Worker) {
					defer wg.Done()
					errs[i] = w.Run(context.Background())
				}(i, w)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", i, err)
				}
			}
			if state := pollState(t, ts, id, 30*time.Second); state != StateDone {
				t.Fatalf("fleet campaign ended %q", state)
			}
			if got := fetchCanonical(t, ts, id); !bytes.Equal(got, want) {
				t.Fatalf("%s diverged from serial run:\nserial:\n%s\nfleet:\n%s", tc.name, want, got)
			}
		})
	}
}

// leaseOne leases a single job over HTTP as the named worker.
func leaseOne(t *testing.T, ts *httptest.Server, id, worker string) LeaseGrant {
	t.Helper()
	body, _ := json.Marshal(LeaseRequest{Worker: worker, Max: 1})
	resp, err := http.Post(ts.URL+"/campaigns/"+id+"/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lr LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	if len(lr.Grants) != 1 {
		t.Fatalf("lease granted %d jobs, want 1", len(lr.Grants))
	}
	return lr.Grants[0]
}

// postUpload posts an upload body under the given Content-Type and
// returns the status code with the decoded response (zero unless 200).
func postUpload(t *testing.T, ts *httptest.Server, id, contentType string, body []byte) (int, CompleteResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/campaigns/"+id+"/complete", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr CompleteResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, cr
}

// dispatchDone reads a dispatch campaign's completed-job count.
func dispatchDone(t *testing.T, ts *httptest.Server, id string) int {
	t.Helper()
	st := getJSON(t, ts.URL+"/campaigns/"+id, http.StatusOK)
	return int(st["dispatch"].(map[string]any)["done"].(float64))
}

// leasedUpload leases one job as worker and runs it for real, returning
// the upload that completes it.
func leasedUpload(t *testing.T, ts *httptest.Server, id string, spec Spec, worker string) CompleteRequest {
	t.Helper()
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	g := leaseOne(t, ts, id, worker)
	jr, err := runJob(context.Background(), new(workspace), g.Job, camp.tests[g.Job.Test], camp.Spec)
	if err != nil {
		t.Fatal(err)
	}
	return CompleteRequest{Version: ProtocolVersion, Worker: worker, Results: []WorkerResult{{LeaseID: g.LeaseID, Result: jr}}}
}

// TestFleetMixedVersionCompat covers a worker from before PWB1 became
// the only codec: its gzip-JSON upload is refused with 415 and merges
// nothing, the same batch re-sent as PWB1 merges, and a current worker
// then finishes the campaign byte-identically to the serial run.
func TestFleetMixedVersionCompat(t *testing.T) {
	spec := fleetSpec(t)
	want := serialCanonical(t, spec)

	t.Run("old-worker-new-server", func(t *testing.T) {
		_, ts := newTestServer(t)
		id := submitDispatch(t, ts, spec)
		req := leasedUpload(t, ts, id, spec, "old")
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		if err := json.NewEncoder(zw).Encode(&req); err != nil {
			t.Fatal(err)
		}
		zw.Close()
		if code, _ := postUpload(t, ts, id, "application/json+gzip", gz.Bytes()); code != http.StatusUnsupportedMediaType {
			t.Fatalf("gzip-JSON upload = %d, want 415", code)
		}
		if done := dispatchDone(t, ts, id); done != 0 {
			t.Fatalf("refused upload completed %d job(s)", done)
		}
		if code, cr := postUpload(t, ts, id, harness.WireContentTypeBinary, harness.EncodeWireBinary(nil, &req)); code != http.StatusOK || cr.Merged != 1 {
			t.Fatalf("PWB1 re-send = %d, merged %d; want 200, 1", code, cr.Merged)
		}
		w := NewWorker(WorkerOptions{BaseURL: ts.URL, Campaign: id, Name: "new", Parallel: 2})
		if err := w.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if state := pollState(t, ts, id, 30*time.Second); state != StateDone {
			t.Fatalf("campaign ended %q", state)
		}
		if got := fetchCanonical(t, ts, id); !bytes.Equal(got, want) {
			t.Fatalf("fleet diverged:\nserial:\n%s\nfleet:\n%s", want, got)
		}
	})
}

// TestCompleteRequiresExactVersion posts otherwise valid PWB1 uploads
// whose version is not ProtocolVersion — 0, as pre-versioned clients
// sent, and a future version — and expects 400 with nothing merged;
// the same upload at ProtocolVersion then merges.
func TestCompleteRequiresExactVersion(t *testing.T) {
	spec := fleetSpec(t)
	_, ts := newTestServer(t)
	id := submitDispatch(t, ts, spec)
	req := leasedUpload(t, ts, id, spec, "w")
	for _, v := range []int{0, ProtocolVersion + 1} {
		req.Version = v
		if code, _ := postUpload(t, ts, id, harness.WireContentTypeBinary, harness.EncodeWireBinary(nil, &req)); code != http.StatusBadRequest {
			t.Fatalf("version %d upload = %d, want 400", v, code)
		}
		if done := dispatchDone(t, ts, id); done != 0 {
			t.Fatalf("version %d upload completed %d job(s)", v, done)
		}
	}
	req.Version = ProtocolVersion
	if code, cr := postUpload(t, ts, id, harness.WireContentTypeBinary, harness.EncodeWireBinary(nil, &req)); code != http.StatusOK || cr.Merged != 1 {
		t.Fatalf("version %d upload = %d, merged %d; want 200, 1", ProtocolVersion, code, cr.Merged)
	}
	if done := dispatchDone(t, ts, id); done != 1 {
		t.Fatalf("exact-version upload completed %d job(s), want 1", done)
	}
}

// TestWorkerRejectsUnknownWire checks that every Wire value other than
// the PWB1 spellings fails Run before the worker contacts the server.
func TestWorkerRejectsUnknownWire(t *testing.T) {
	for _, wire := range []string{"json+gzip", "json", "gzip"} {
		w := NewWorker(WorkerOptions{BaseURL: "http://127.0.0.1:1", Campaign: "c1", Wire: wire, MaxAttempts: 1})
		if err := w.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "unknown wire codec") {
			t.Fatalf("Wire %q: Run = %v, want unknown wire codec", wire, err)
		}
	}
}

// TestFleetWireMetrics checks the operator surface the new data path
// added: byte/time counters and the batch-size histogram move on the
// JSON snapshot, and /metrics renders the Prometheus families.
func TestFleetWireMetrics(t *testing.T) {
	spec := fleetSpec(t)
	_, ts := newTestServer(t)
	id := submitDispatch(t, ts, spec)
	w := NewWorker(WorkerOptions{BaseURL: ts.URL, Campaign: id, Name: "m1", Parallel: 2, leaseBatch: 4})
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if state := pollState(t, ts, id, 30*time.Second); state != StateDone {
		t.Fatalf("campaign ended %q", state)
	}

	resp, err := http.Get(ts.URL + "/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		Metrics Snapshot `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	m := status.Metrics
	if m.WireBytesRecv <= 0 || m.WireBytesSent <= 0 {
		t.Fatalf("wire byte counters did not move: recv=%d sent=%d", m.WireBytesRecv, m.WireBytesSent)
	}
	if m.WireEncodeNs <= 0 || m.WireDecodeNs <= 0 {
		t.Fatalf("wire timing counters did not move: enc=%d dec=%d", m.WireEncodeNs, m.WireDecodeNs)
	}
	if m.WireBatch.Count <= 0 || m.WireBatch.Sum <= 0 {
		t.Fatalf("batch histogram did not move: %+v", m.WireBatch)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	promResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer promResp.Body.Close()
	prom, _ := io.ReadAll(promResp.Body)
	for _, family := range []string{
		"perple_wire_bytes_recv_total",
		"perple_wire_bytes_sent_total",
		"perple_wire_encode_ns_total",
		"perple_wire_decode_ns_total",
		`perple_wire_batch_size_bucket{le="+Inf"}`,
		"perple_wire_batch_size_sum",
		"perple_wire_batch_size_count",
	} {
		if !strings.Contains(string(prom), family) {
			t.Fatalf("Prometheus exposition lacks %s:\n%s", family, prom)
		}
	}
}

// TestCompleteRejectsDamagedBinary posts a bit-damaged binary frame and
// expects a 400, which a worker does not re-send
// (TestWorkerStopsOnDamagedUpload).
func TestCompleteRejectsDamagedBinary(t *testing.T) {
	spec := fleetSpec(t)
	_, ts := newTestServer(t)
	id := submitDispatch(t, ts, spec)
	frame := harness.EncodeWireBinary(nil, sampleCompleteRequest())
	frame[len(frame)/2] ^= 0x10
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/campaigns/"+id+"/complete", bytes.NewReader(frame))
	req.Header.Set("Content-Type", harness.WireContentTypeBinary)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("damaged binary upload = %d, want 400", resp.StatusCode)
	}
}

// TestWorkerStopsOnDamagedUpload damages every upload frame in flight:
// the server answers 400, and the worker fails after that one /complete
// call instead of re-sending, leaving its leases to expire and requeue.
func TestWorkerStopsOnDamagedUpload(t *testing.T) {
	counter, ts := newDurableTestServer(t, 0)
	id := submitDispatch(t, ts, fleetSpec(t))
	damage := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if strings.HasSuffix(req.URL.Path, "/complete") {
			body, err := io.ReadAll(req.Body)
			if err != nil {
				return nil, err
			}
			body[len(body)/2] ^= 0x10
			req.Body = io.NopCloser(bytes.NewReader(body))
		}
		return http.DefaultTransport.RoundTrip(req)
	})
	w := NewWorker(WorkerOptions{
		BaseURL: ts.URL, Campaign: id, Name: "damaged", Parallel: 1, leaseBatch: 1,
		Client: &http.Client{Transport: damage}, BackoffBase: time.Millisecond,
	})
	err := w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("Run with damaged uploads = %v, want the 400 refusal", err)
	}
	if n := counter.count("complete"); n != 1 {
		t.Fatalf("worker made %d /complete calls, want 1: a 400 is not re-sent", n)
	}
}
