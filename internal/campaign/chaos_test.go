// The deterministic fault-injection framework of the chaos suite: a
// seeded, per-endpoint schedule of HTTP transport faults (see
// chaosRoundTripper) and checkpoint and WAL filesystem faults (see
// chaosFS), which the fleet soak and failover tests drive.
//
// Two properties make it a test harness rather than a fuzzer:
//
//   - Reproducibility: every fault decision comes from one seeded PRNG
//     consumed in operation order, so a fixed seed and a serialized
//     operation sequence replay the same fault schedule. (Under
//     concurrency the interleaving — and therefore the schedule — may
//     vary run to run; the properties the chaos suite asserts, such as
//     byte-identical merged results, hold for every interleaving.)
//
//   - Guaranteed progress: at most MaxConsecutive back-to-back failing
//     faults are injected per operation kind, so any retry loop with
//     more than MaxConsecutive attempts is guaranteed to eventually see
//     a clean operation. Chaos runs torture the stack's failure
//     handling without ever being able to wedge it.
package campaign

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// chaosFault identifies one injector.
type chaosFault int

const (
	// faultNone injects nothing; the operation proceeds untouched.
	faultNone chaosFault = iota
	// faultDropRequest fails the exchange before the server sees it.
	faultDropRequest
	// faultDropResponse delivers the request, lets the server act, then loses
	// the response — the fault that exposes non-idempotent handlers.
	faultDropResponse
	// faultDelay stalls the request, then lets it proceed.
	faultDelay
	// faultDuplicate delivers the request twice; the second delivery's
	// response is discarded.
	faultDuplicate
	// faultTruncate cuts the response body short mid-stream.
	faultTruncate
	// faultServerError synthesizes a 503 without contacting the server.
	faultServerError
	// faultTornWrite persists only a prefix of a checkpoint write, then fails
	// the fsync.
	faultTornWrite
	// faultCorrupt silently flips one bit in a checkpoint write — the fault
	// only a checksum can catch.
	faultCorrupt
	// faultRenameFail fails the checkpoint's commit (or rotation) rename.
	faultRenameFail
	// faultPartialAppend persists only a prefix of a WAL append, then fails
	// the write — the crash-mid-append case that leaves a torn tail
	// record for replay to detect and truncate.
	faultPartialAppend

	numChaosFaults
)

var chaosFaultNames = [numChaosFaults]string{
	"none", "drop_request", "drop_response", "delay", "duplicate",
	"truncate", "server_error", "torn_write", "corrupt", "rename_fail",
	"partial_append",
}

func (f chaosFault) String() string {
	if f < 0 || f >= numChaosFaults {
		return "unknown"
	}
	return chaosFaultNames[f]
}

// failing reports whether the fault makes the operation observably fail
// and therefore counts toward the consecutive-fault cap. faultDelay,
// faultDuplicate, and faultCorrupt leave the operation nominally
// successful.
func (f chaosFault) failing() bool {
	switch f {
	case faultNone, faultDelay, faultDuplicate, faultCorrupt:
		return false
	}
	return true
}

// chaosStats is a snapshot of injector activity: how many times each
// fault fired, keyed by chaosFault.String(), plus "ops" for total
// operations seen.
type chaosStats map[string]int64

// Merge folds another snapshot into s (for aggregating across the
// injectors of a whole fleet).
func (s chaosStats) Merge(o chaosStats) {
	for k, v := range o {
		s[k] += v
	}
}

// chaosPick is one entry of an operation's fault-rate table.
type chaosPick struct {
	fault chaosFault
	rate  float64
}

// schedule is the shared seeded core: a single PRNG consumed in
// operation order, per-op consecutive-failure caps, and fault counters.
type chaosSchedule struct {
	mu          sync.Mutex
	rng         *rand.Rand
	max         int
	consecutive map[string]int
	counts      [numChaosFaults]int64
	ops         int64
}

func newChaosSchedule(seed int64, maxConsecutive int) *chaosSchedule {
	if maxConsecutive <= 0 {
		maxConsecutive = 2
	}
	return &chaosSchedule{
		rng:         rand.New(rand.NewSource(seed)),
		max:         maxConsecutive,
		consecutive: map[string]int{},
	}
}

// next draws the fault for one operation against op's rate table. The
// rates are treated as disjoint outcome probabilities (their sum must
// stay ≤ 1); a single uniform draw selects among them. A failing fault
// is suppressed to faultNone once op has already suffered max consecutive
// failing faults, which is what guarantees bounded retry loops succeed.
func (s *chaosSchedule) next(op string, picks []chaosPick) chaosFault {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops++
	u := s.rng.Float64()
	f := faultNone
	for _, p := range picks {
		if u < p.rate {
			f = p.fault
			break
		}
		u -= p.rate
	}
	if f.failing() {
		if s.consecutive[op] >= s.max {
			f = faultNone
		} else {
			s.consecutive[op]++
		}
	}
	if !f.failing() {
		s.consecutive[op] = 0
	}
	s.counts[f]++
	return f
}

// intn is a deterministic auxiliary draw (delay durations, corruption
// positions) from the same seeded stream.
func (s *chaosSchedule) intn(n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Intn(n)
}

// stats snapshots the counters.
func (s *chaosSchedule) stats() chaosStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := chaosStats{"ops": s.ops}
	for f := chaosFault(1); f < numChaosFaults; f++ {
		out[f.String()] = s.counts[f]
	}
	return out
}

// --- checkpoint and WAL filesystem faults ---

// chaosFSRates are the per-save-attempt fault probabilities for the
// checkpoint filesystem. One seeded draw per save attempt (made when
// the temp file is created) selects at most one of them, so the sum
// must stay ≤ 1.
type chaosFSRates struct {
	// TornWrite persists only the first half of the snapshot, then fails
	// the fsync — the crash-mid-write case.
	TornWrite float64
	// Corrupt flips a single bit in the written snapshot and reports
	// success — silent media corruption, detectable only by checksum.
	Corrupt float64
	// RenameFail fails the save's next rename (rotation or commit).
	RenameFail float64
	// PartialAppend persists only a prefix of one WAL append and fails
	// the write — the crash that leaves a torn record at the log's tail.
	PartialAppend float64
}

// chaosFSConfig parameterizes a chaosFS.
type chaosFSConfig struct {
	// Seed drives the fault schedule; equal seeds replay equal draws.
	Seed  int64
	Rates chaosFSRates
	// MaxConsecutive caps back-to-back failing save attempts (default
	// 2). faultCorrupt does not count — it is a silent success — so a save
	// loop with more attempts than the cap always completes.
	MaxConsecutive int
}

// chaosSaveOp is the save-path schedule key: a save attempt draws
// exactly one fault covering its whole write-sync-rename sequence, so
// the consecutive-failure cap bounds failing save attempts as a unit.
// chaosAppendOp keys the WAL append path separately — append faults
// must not eat the save path's consecutive-failure budget or vice versa.
const (
	chaosSaveOp   = "save"
	chaosAppendOp = "append"
)

// chaosFS implements CheckpointFS with seeded write-path faults.
// Reads are never faulted: corruption is injected at write time, which
// is where real torn sectors and bit rot originate, and which is what
// exercises the load-time checksum and last-good fallback.
//
// Fault bookkeeping assumes save attempts do not interleave (the
// campaign layer serializes checkpoint writes); concurrent reads are
// fine.
type chaosFS struct {
	sched *chaosSchedule
	rates chaosFSRates

	mu            sync.Mutex
	pendingRename bool
}

// newChaosFS builds a fault-injecting checkpoint filesystem.
func newChaosFS(cfg chaosFSConfig) *chaosFS {
	return &chaosFS{sched: newChaosSchedule(cfg.Seed, cfg.MaxConsecutive), rates: cfg.Rates}
}

// Stats snapshots how often each injector has fired.
func (f *chaosFS) Stats() chaosStats { return f.sched.stats() }

// CreateTemp opens the save attempt: it draws the attempt's fault and
// returns a buffering file that applies any write-path fault at Sync.
func (f *chaosFS) CreateTemp(dir, pattern string) (CheckpointFile, error) {
	fault := f.sched.next(chaosSaveOp, []chaosPick{
		{faultTornWrite, f.rates.TornWrite},
		{faultCorrupt, f.rates.Corrupt},
		{faultRenameFail, f.rates.RenameFail},
	})
	if fault == faultRenameFail {
		f.mu.Lock()
		f.pendingRename = true
		f.mu.Unlock()
		fault = faultNone
	}
	file, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &chaosFaultFile{f: file, fault: fault, intn: f.sched.intn}, nil
}

// Rename consumes a pending rename fault, else delegates to os.Rename.
func (f *chaosFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	fail := f.pendingRename
	f.pendingRename = false
	f.mu.Unlock()
	if fail {
		return fmt.Errorf("chaos: rename %s -> %s failed", oldpath, newpath)
	}
	return os.Rename(oldpath, newpath)
}

// Remove delegates to os.Remove (cleanup is never faulted).
func (f *chaosFS) Remove(name string) error { return os.Remove(name) }

// ReadFile delegates to os.ReadFile (reads are never faulted).
func (f *chaosFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// SyncDir is a no-op: directory syncs are best-effort in the real
// implementation too, and faulting them would add no new failure mode
// beyond faultRenameFail.
func (f *chaosFS) SyncDir(dir string) error { return nil }

// OpenAppend opens a WAL segment for appending. Each Write draws its
// own fault, so a long-lived log file sees torn appends sprinkled
// through its life rather than one draw at open time.
func (f *chaosFS) OpenAppend(name string) (WALFile, error) {
	file, err := os.OpenFile(name, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &chaosAppendFile{f: file, fs: f}, nil
}

// chaosAppendFile is a WAL segment handle whose writes can tear. Unlike
// chaosFaultFile it does not buffer: each append is one frame, and a
// faultPartialAppend persists a strict prefix of that frame and reports
// failure — exactly the bytes a real crash mid-append would leave.
type chaosAppendFile struct {
	f  *os.File
	fs *chaosFS
}

func (w *chaosAppendFile) Write(p []byte) (int, error) {
	fault := w.fs.sched.next(chaosAppendOp, []chaosPick{
		{faultPartialAppend, w.fs.rates.PartialAppend},
	})
	if fault == faultPartialAppend && len(p) > 0 {
		cut := w.fs.sched.intn(len(p))
		n, err := w.f.Write(p[:cut])
		if err != nil {
			return n, err
		}
		w.f.Sync()
		return n, fmt.Errorf("chaos: partial append: %d of %d bytes persisted", cut, len(p))
	}
	return w.f.Write(p)
}

func (w *chaosAppendFile) Sync() error  { return w.f.Sync() }
func (w *chaosAppendFile) Close() error { return w.f.Close() }

// chaosFaultFile buffers all writes and applies its fault when the caller
// syncs, mimicking a kernel that only surfaces write-back problems at
// fsync time.
type chaosFaultFile struct {
	f     *os.File
	buf   bytes.Buffer
	fault chaosFault
	intn  func(n int) int
}

func (w *chaosFaultFile) Write(p []byte) (int, error) { return w.buf.Write(p) }

func (w *chaosFaultFile) Name() string { return w.f.Name() }

func (w *chaosFaultFile) Sync() error {
	data := w.buf.Bytes()
	switch w.fault {
	case faultTornWrite:
		// Half the bytes reach the file, then the fsync reports failure.
		if _, err := w.f.Write(data[:len(data)/2]); err != nil {
			return err
		}
		w.f.Sync()
		return fmt.Errorf("chaos: torn write: fsync failed after %d of %d bytes", len(data)/2, len(data))
	case faultCorrupt:
		if len(data) > 0 {
			data = append([]byte(nil), data...)
			data[w.intn(len(data))] ^= 1 << uint(w.intn(8))
		}
	}
	if _, err := w.f.Write(data); err != nil {
		return err
	}
	return w.f.Sync()
}

func (w *chaosFaultFile) Close() error { return w.f.Close() }

// --- HTTP transport faults ---

// chaosRates are the per-request fault probabilities for one endpoint. At
// most one fault fires per request — a single seeded draw selects among
// them — so the sum must stay ≤ 1.
type chaosRates struct {
	DropRequest  float64
	DropResponse float64
	Delay        float64
	Duplicate    float64
	Truncate     float64
	ServerError  float64
}

// chaosConfig parameterizes a chaosRoundTripper.
type chaosConfig struct {
	// Seed drives the fault schedule; equal seeds replay equal draws.
	Seed int64
	// Rates applies to every request unless PerOp overrides the
	// request's op (the last segment of the URL path, e.g. "lease").
	Rates chaosRates
	// PerOp overrides Rates for specific ops.
	PerOp map[string]chaosRates
	// DelayMin and DelayMax bound injected delays (defaults 1ms–10ms).
	DelayMin time.Duration
	DelayMax time.Duration
	// MaxConsecutive caps back-to-back failing faults per op (default
	// 2), so any retry loop with more attempts than the cap is
	// guaranteed a clean exchange.
	MaxConsecutive int
}

// chaosRoundTripper wraps another http.RoundTripper with seeded fault
// injection. It is safe for concurrent use.
type chaosRoundTripper struct {
	base  http.RoundTripper
	cfg   chaosConfig
	sched *chaosSchedule
}

// newChaosRoundTripper builds a fault-injecting chaosRoundTripper over
// base (defaulting to http.DefaultTransport).
func newChaosRoundTripper(cfg chaosConfig, base http.RoundTripper) *chaosRoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	if cfg.DelayMin <= 0 {
		cfg.DelayMin = time.Millisecond
	}
	if cfg.DelayMax < cfg.DelayMin {
		cfg.DelayMax = 10 * time.Millisecond
		if cfg.DelayMax < cfg.DelayMin {
			cfg.DelayMax = cfg.DelayMin
		}
	}
	return &chaosRoundTripper{base: base, cfg: cfg, sched: newChaosSchedule(cfg.Seed, cfg.MaxConsecutive)}
}

// Stats snapshots how often each injector has fired.
func (rt *chaosRoundTripper) Stats() chaosStats { return rt.sched.stats() }

// chaosOp keys the fault schedule by the last URL path segment, which in
// the dispatch protocol names the operation (corpus, lease, heartbeat,
// complete).
func chaosOp(req *http.Request) string {
	p := strings.TrimSuffix(req.URL.Path, "/")
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		p = p[i+1:]
	}
	if p == "" {
		p = "/"
	}
	return p
}

func (rt *chaosRoundTripper) picks(op string) []chaosPick {
	r := rt.cfg.Rates
	if o, ok := rt.cfg.PerOp[op]; ok {
		r = o
	}
	return []chaosPick{
		{faultDropRequest, r.DropRequest},
		{faultDropResponse, r.DropResponse},
		{faultDelay, r.Delay},
		{faultDuplicate, r.Duplicate},
		{faultTruncate, r.Truncate},
		{faultServerError, r.ServerError},
	}
}

// RoundTrip implements http.RoundTripper.
func (rt *chaosRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	op := chaosOp(req)
	switch rt.sched.next(op, rt.picks(op)) {
	case faultDropRequest:
		chaosCloseBody(req)
		return nil, fmt.Errorf("chaos: %s %s: request dropped", req.Method, req.URL.Path)

	case faultServerError:
		chaosCloseBody(req)
		return chaosErrorResponse(req), nil

	case faultDelay:
		span := int64(rt.cfg.DelayMax-rt.cfg.DelayMin) + 1
		d := rt.cfg.DelayMin + time.Duration(rt.sched.intn(int(span)))
		select {
		case <-time.After(d):
		case <-req.Context().Done():
			chaosCloseBody(req)
			return nil, req.Context().Err()
		}
		return rt.base.RoundTrip(req)

	case faultDropResponse:
		// The server sees and acts on the request; only the response is
		// lost. The caller observes a transport error and will retry, so
		// any non-idempotent handler double-applies.
		resp, err := rt.base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		chaosDrain(resp)
		return nil, fmt.Errorf("chaos: %s %s: response dropped after delivery", req.Method, req.URL.Path)

	case faultDuplicate:
		// Deliver a cloned copy first, discard its response, then run the
		// caller's exchange normally — the wire-level double-send.
		if dup, ok := chaosCloneRequest(req); ok {
			if resp, err := rt.base.RoundTrip(dup); err == nil {
				chaosDrain(resp)
			}
		}
		return rt.base.RoundTrip(req)

	case faultTruncate:
		resp, err := rt.base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		cut := body[:len(body)/2]
		resp.Body = io.NopCloser(bytes.NewReader(cut))
		resp.ContentLength = int64(len(cut))
		resp.Header.Set("Content-Length", strconv.Itoa(len(cut)))
		return resp, nil
	}
	return rt.base.RoundTrip(req)
}

func chaosCloseBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

func chaosDrain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// chaosCloneRequest copies req with a replayable body. Requests whose body
// cannot be replayed (no GetBody) are not duplicated.
func chaosCloneRequest(req *http.Request) (*http.Request, bool) {
	dup := req.Clone(req.Context())
	if req.Body == nil {
		return dup, true
	}
	if req.GetBody == nil {
		return nil, false
	}
	body, err := req.GetBody()
	if err != nil {
		return nil, false
	}
	dup.Body = body
	return dup, true
}

func chaosErrorResponse(req *http.Request) *http.Response {
	body := "chaos: injected server error\n"
	return &http.Response{
		Status:        "503 Service Unavailable",
		StatusCode:    http.StatusServiceUnavailable,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": {"text/plain; charset=utf-8"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}
