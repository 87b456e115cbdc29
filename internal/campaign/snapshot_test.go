package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/crc32"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"perple/internal/litmus"
)

// appendEnvelope appends the compact encoding of the envelope around
// payload, a compact-encoded Checkpoint, to dst: the bytes json.Marshal
// produces for a checkpointEnvelope.
func appendEnvelope(dst, payload []byte) []byte {
	dst = append(dst, `{"version":`...)
	dst = strconv.AppendInt(dst, checkpointVersion, 10)
	dst = append(dst, `,"crc32":`...)
	dst = strconv.AppendUint(dst, uint64(crc32.ChecksumIEEE(payload)), 10)
	dst = append(dst, `,"payload":`...)
	dst = append(dst, payload...)
	return append(dst, '}')
}

// referenceSnapshot is the snapshot format's definition, independent of
// the snapshot writer: json.Marshal of the Checkpoint, done sorted by
// job ID, wrapped in its envelope.
func referenceSnapshot(tb testing.TB, spec Spec, done map[int]*JobResult, ledger *LedgerSnapshot) []byte {
	tb.Helper()
	cp := Checkpoint{Version: checkpointVersion, Spec: spec, Done: make([]*JobResult, 0, len(done)), Ledger: ledger}
	for _, jr := range done {
		cp.Done = append(cp.Done, jr)
	}
	sort.Slice(cp.Done, func(i, j int) bool { return cp.Done[i].JobID < cp.Done[j].JobID })
	payload, err := json.Marshal(&cp)
	if err != nil {
		tb.Fatal(err)
	}
	return appendEnvelope(nil, payload)
}

// doneResults decodes a dispatcher's done set back into results. Caller
// holds d.mu.
func doneResults(tb testing.TB, d *Dispatcher) map[int]*JobResult {
	tb.Helper()
	out := map[int]*JobResult{}
	for id, b := range d.done {
		if b == nil {
			continue
		}
		jr := new(JobResult)
		if err := json.Unmarshal(b, jr); err != nil {
			tb.Fatalf("done[%d] = %q does not decode: %v", id, b, err)
		}
		out[id] = jr
	}
	return out
}

// richResult is fakeResult with every optional field a snapshot has to
// encode: a histogram (whose keys encoding/json sorts), a note with
// characters it escapes, and trace tallies.
func richResult(job Job) *JobResult {
	jr := fakeResult(job)
	jr.Histogram = map[string]int64{"1:r0=1; 1:r1=1": 7, "0:r0=0; 1:r1=0": int64(job.ID), "0:r0=1; 1:r1=0": 3, "0:r0=0; 1:r1=1": 1}
	if job.ID%3 == 0 {
		jr.Note = `not convertible: <"rmw"> & more` + "\u2028"
	}
	jr.TracesVerified, jr.TraceReports = 4, []string{"P0#0 -[rf]-> P1#0"}
	return jr
}

// snapshotCheck compares the checkpoint file at path with the
// reference encoding of done and ledger.
func snapshotCheck(t *testing.T, what, path string, spec Spec, done map[int]*JobResult, ledger *LedgerSnapshot) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if want := referenceSnapshot(t, spec, done, ledger); !bytes.Equal(got, want) {
		t.Fatalf("%s: snapshot differs from json.Marshal + envelope:\n got %s\nwant %s", what, got, want)
	}
}

// TestSnapshotWrapperBytes pins the exported save functions to the
// format's definition, including ledger strings that encoding/json
// escapes.
func TestSnapshotWrapperBytes(t *testing.T) {
	camp, err := New(walTestSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	some := map[int]*JobResult{}
	for _, job := range camp.jobs[:5] {
		some[job.ID] = richResult(job)
	}
	odd := `w<1>&"2"` + "\u2028\u2029\x01\x7f\xff\\é"
	cases := []struct {
		name   string
		done   map[int]*JobResult
		ledger *LedgerSnapshot
	}{
		{"empty", nil, nil},
		{"no-ledger", some, nil},
		{"nil-rows", some, &LedgerSnapshot{NextLease: 3}},
		{"empty-rows", nil, &LedgerSnapshot{Rows: []LedgerRow{}, Cancelled: true}},
		{"escaped", some, &LedgerSnapshot{
			NextLease: 1 << 40,
			Rows: []LedgerRow{
				{JobID: 0, State: int(stateDone)},
				{JobID: 1, State: int(stateLeased), LeaseID: 9, Worker: odd, Expires: time.Unix(1700000000, 5).UnixNano(), Attempts: 1},
				{JobID: 2, State: int(statePending), Attempts: 2, FailErr: "boom: " + odd},
				{JobID: 3, State: int(stateDone), Attempts: 3, Failed: true, FailErr: "plain"},
				{JobID: 4, State: int(stateLeased), LeaseID: -1, Worker: "w-1", Expires: -7},
			},
			Merged: []MergedLease{{JobID: 0, LeaseID: 4}, {JobID: 5, LeaseID: 1 << 50}},
		}},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		path := filepath.Join(dir, tc.name+".json")
		if err := SaveCheckpointLedgerFS(osCheckpointFS{}, path, camp.Spec, tc.done, tc.ledger); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		snapshotCheck(t, tc.name, path, camp.Spec, tc.done, tc.ledger)
		// A second save over the first rotates it and writes the same bytes.
		if err := SaveCheckpointLedgerFS(osCheckpointFS{}, path, camp.Spec, tc.done, nil); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		snapshotCheck(t, tc.name+"/again", path, camp.Spec, tc.done, nil)
	}
}

// TestDispatcherSnapshotBytes pins every dispatcher save — scheduled,
// WAL compaction at startup and closing — to the format's definition,
// for results merged, restored from a checkpoint and replayed from the
// WAL, over consecutive saves that reuse the writer's buffers.
func TestDispatcherSnapshotBytes(t *testing.T) {
	camp, err := New(walTestSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	worker := `w<&>"` + "\u2028"

	t.Run("restored-then-periodic", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "cp.json")
		done := map[int]*JobResult{}
		for _, job := range camp.jobs[:len(camp.jobs)/4] {
			done[job.ID] = richResult(job)
		}
		if err := SaveCheckpoint(path, camp.Spec, done); err != nil {
			t.Fatal(err)
		}
		const floor = 1
		d, err := NewDispatcher(camp, time.Minute, Options{CheckpointPath: path, CheckpointEvery: floor})
		if err != nil {
			t.Fatal(err)
		}
		d.mu.Lock()
		if err := d.saveLocked(false); err != nil {
			t.Fatal(err)
		}
		d.mu.Unlock()
		snapshotCheck(t, "restored", path, camp.Spec, done, nil)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.metrics.CheckpointBytes.Load(); got != fi.Size() || d.metrics.CheckpointNs.Load() <= 0 {
			t.Fatalf("a save of %d bytes counted %d bytes in %d ns", fi.Size(), got, d.metrics.CheckpointNs.Load())
		}
		// The restored rows start the interval: saves land at 3+3 = 6 and
		// 6+6 = 12 done, the last coinciding with the close.
		saved, due, saves := maps.Clone(done), nextSave(floor, len(done)), int64(1)
		for i, g := range d.Lease(LeaseRequest{Worker: worker, Max: 1 << 20}).Grants {
			jr := richResult(g.Job)
			d.Complete(CompleteRequest{Worker: worker, Results: []WorkerResult{{LeaseID: g.LeaseID, Result: jr}}}, 0)
			done[jr.JobID] = jr
			if len(done) == due {
				saved, due = maps.Clone(done), nextSave(floor, len(done))
				saves++
			}
			snapshotCheck(t, "after merge "+strconv.Itoa(i), path, camp.Spec, saved, nil)
		}
		if len(saved) != len(camp.jobs) {
			t.Fatalf("the last scheduled save held %d of %d jobs; this case wants it to coincide with the close", len(saved), len(camp.jobs))
		}
		if got := d.metrics.CheckpointSaves.Load(); got != saves || saves != 3 {
			t.Fatalf("CheckpointSaves = %d, want the explicit save plus %d scheduled", got, saves-1)
		}
	})

	t.Run("wal-replay-then-closing", func(t *testing.T) {
		dir := t.TempDir()
		opts := Options{
			CheckpointPath:  filepath.Join(dir, "cp.json"),
			WALPath:         filepath.Join(dir, "ledger.wal"),
			WALSyncEvery:    1,
			CheckpointEvery: 1 << 20,
		}
		ledgerOf := func(d *Dispatcher) *LedgerSnapshot {
			d.mu.Lock()
			defer d.mu.Unlock()
			lg := new(LedgerSnapshot)
			d.ledgerLocked(lg)
			return lg
		}
		d1, err := NewDispatcher(camp, time.Minute, opts)
		if err != nil {
			t.Fatal(err)
		}
		snapshotCheck(t, "fresh startup compaction", opts.CheckpointPath, camp.Spec, nil, ledgerOf(d1))
		grants := d1.Lease(LeaseRequest{Worker: worker, Max: 4}).Grants
		done := map[int]*JobResult{}
		for _, g := range grants[:2] {
			jr := richResult(g.Job)
			d1.Complete(CompleteRequest{Worker: worker, Results: []WorkerResult{{LeaseID: g.LeaseID, Result: jr}}}, 0)
			done[jr.JobID] = jr
		}
		d1.Complete(CompleteRequest{Worker: worker, Failures: []WorkerFailure{{JobID: grants[2].Job.ID, LeaseID: grants[2].LeaseID, Err: "boom <&> " + worker}}}, 0)

		// d1 is abandoned as a crash would leave it; d2 replays its log.
		d2, err := NewDispatcher(camp, time.Minute, opts)
		if err != nil {
			t.Fatal(err)
		}
		d2.mu.Lock()
		if replayed := doneResults(t, d2); len(replayed) != len(done) {
			t.Fatalf("replayed %d results, want %d", len(replayed), len(done))
		}
		d2.mu.Unlock()
		snapshotCheck(t, "replayed startup compaction", opts.CheckpointPath, camp.Spec, done, ledgerOf(d2))

		// The lease d1 granted and nobody reported survives the replay; its
		// holder reports it last, closing the run.
		held := grants[3]
		for _, g := range append(d2.Lease(LeaseRequest{Worker: worker, Max: 1 << 20}).Grants, held) {
			jr := richResult(g.Job)
			d2.Complete(CompleteRequest{Worker: worker, Results: []WorkerResult{{LeaseID: g.LeaseID, Result: jr}}}, 0)
			done[jr.JobID] = jr
		}
		select {
		case <-d2.Finished():
		default:
			t.Fatal("dispatcher did not finish")
		}
		snapshotCheck(t, "closing save", opts.CheckpointPath, camp.Spec, done, ledgerOf(d2))
	})
}

// saveBenchDispatcher runs the fleet-durable benchmark's spec (2000
// shards) through one in-process executor whose jobs return
// richResult, checkpointing only at the close: a finished dispatcher
// holding 2000 encoded results.
func saveBenchDispatcher(tb testing.TB) *Dispatcher {
	tb.Helper()
	camp, err := New(Spec{Tools: []string{"litmus7-user"}, Iterations: 50000, ShardSize: 1000})
	if err != nil {
		tb.Fatal(err)
	}
	rich := func(_ context.Context, _ *workspace, job Job, _ *litmus.Test, _ Spec) (*JobResult, error) {
		return richResult(job), nil
	}
	d, err := newDispatcher(camp, 0, Options{
		CheckpointPath:  filepath.Join(tb.TempDir(), "cp.json"),
		CheckpointEvery: math.MaxInt,
		runJob:          rich,
	})
	if err != nil {
		tb.Fatal(err)
	}
	d.execute(context.Background(), &jobExec{tests: camp.tests, spec: camp.Spec, run: rich}, new(workspace), "local-0")
	if d.ndone != len(camp.jobs) {
		tb.Fatalf("%d of %d jobs done", d.ndone, len(camp.jobs))
	}
	return d
}

// TestCheckpointSaveAllocsFlat pins the point of keeping results
// encoded: the allocations of a save without a ledger section (temp
// file, renames, directory sync) do not grow with the done count.
// Re-encoding the results costs at least one allocation each, since
// encoding/json sorts every histogram's keys. Saves with a WAL also
// encode the ledger, O(log J) times per run.
func TestCheckpointSaveAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 2000 shards")
	}
	d := saveBenchDispatcher(t)
	d.mu.Lock()
	defer d.mu.Unlock()
	allocs := testing.AllocsPerRun(5, func() {
		if err := d.saveLocked(false); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per save of %d done results", allocs, d.ndone)
	if allocs > 64 {
		t.Fatalf("a save of %d done results allocates %.0f objects, want ≤ 64", d.ndone, allocs)
	}
}

// noSyncFS is the real filesystem with fsync turned into a no-op.
type noSyncFS struct{ osCheckpointFS }

type noSyncFile struct{ CheckpointFile }

func (noSyncFile) Sync() error { return nil }

func (fs noSyncFS) CreateTemp(dir, pattern string) (CheckpointFile, error) {
	f, err := fs.osCheckpointFS.CreateTemp(dir, pattern)
	return noSyncFile{f}, err
}

func (noSyncFS) SyncDir(string) error { return nil }

// BenchmarkCheckpointSave times one save without a WAL (done results, no
// ledger section) of a 2000-shard campaign. The fsyncs are skipped: they
// time the disk, not the writer, and would swamp what the benchmark
// gates — a save's allocations, which a return to re-encoding every
// result multiplies.
func BenchmarkCheckpointSave(b *testing.B) {
	d := saveBenchDispatcher(b)
	d.opts.CheckpointFS = noSyncFS{}
	d.mu.Lock()
	defer d.mu.Unlock()
	// Untimed saves size the reused buffers and start the OS threads the
	// runtime hands blocking syscalls to: a thread started inside the
	// timed loop costs an allocation of its own, a full 1 KB of B/op at
	// five ops. Collecting the setup's garbage keeps its GC cycle out of
	// the loop too.
	for i := 0; i < 8; i++ {
		if err := d.saveLocked(false); err != nil {
			b.Fatal(err)
		}
	}
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.saveLocked(false); err != nil {
			b.Fatal(err)
		}
	}
}
