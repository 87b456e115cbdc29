package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"perple/internal/harness"
)

func walTestSpec(t *testing.T) Spec {
	t.Helper()
	spec := smallSpec(t)
	spec.MaxRetries = 2
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestWALRecordRoundTrip(t *testing.T) {
	jr := fakeResult(Job{ID: 3, Test: "sb", Tool: "litmus7-user", Preset: "p", Shard: 1, N: 10, Seed: 42})
	recs := []walRecord{
		{Kind: walKindBegin, SpecCRC: 0xdeadbeef},
		{Kind: walKindGrant, JobID: 7, LeaseID: 19, Worker: "w-1", Expires: 123456789},
		{Kind: walKindExtend, JobID: 7, LeaseID: 19, Expires: 223456789},
		{Kind: walKindComplete, JobID: 3, LeaseID: 21, Result: jr},
		{Kind: walKindRequeue, JobID: 5, Attempts: 2, Err: "lease expired"},
		{Kind: walKindDeadLetter, JobID: 9, Attempts: 3, Err: "poison shard"},
		{Kind: walKindCancel},
	}
	for _, rec := range recs {
		data := harness.EncodeWireBinary(nil, &rec)
		var got walRecord
		if err := harness.DecodeWireBinary(data, &got, 0); err != nil {
			t.Fatalf("kind %d: decode: %v", rec.Kind, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("kind %d round trip:\n got %+v\nwant %+v", rec.Kind, got, rec)
		}
	}
}

// TestWALTornTailTruncated pins the scan property replay depends on:
// any byte-level damage at the tail — a partial final frame or trailing
// garbage — drops exactly the torn record and keeps every intact frame
// before it; a log written for a different spec is refused.
func TestWALTornTailTruncated(t *testing.T) {
	fsys := osCheckpointFS{}
	dir := t.TempDir()
	path := filepath.Join(dir, "log.wal")
	const crc = uint32(0x1234)

	w := newWAL(fsys, path, 1, crc, &Metrics{})
	if err := w.rotate(); err != nil {
		t.Fatal(err)
	}
	w.append(&walRecord{Kind: walKindGrant, JobID: 1, LeaseID: 5, Worker: "w", Expires: 99})
	w.append(&walRecord{Kind: walKindRequeue, JobID: 1, Attempts: 1, Err: "x"})
	w.close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replayWAL(fsys, path, crc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.recs) != 3 || rep.truncated != 0 {
		t.Fatalf("clean replay: %d recs, truncated %d", len(rep.recs), rep.truncated)
	}

	// Tear the final record: its frame is dropped, the rest survives.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = replayWAL(fsys, path, crc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.recs) != 2 || rep.truncated != 1 {
		t.Fatalf("torn replay: %d recs, truncated %d", len(rep.recs), rep.truncated)
	}

	// Trailing garbage after intact frames: all records survive, the
	// garbage is reported torn.
	if err := os.WriteFile(path, append(append([]byte(nil), data...), "junk"...), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = replayWAL(fsys, path, crc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.recs) != 3 || rep.truncated != 1 {
		t.Fatalf("garbage-tail replay: %d recs, truncated %d", len(rep.recs), rep.truncated)
	}

	// A log headed by a different campaign's begin record is an operator
	// error, not something to silently replay.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := replayWAL(fsys, path, crc+1); err == nil {
		t.Fatal("replay accepted a WAL written by a different spec")
	}
}

// dispatcherFingerprint is the canonical observable state a recovery
// must reproduce byte-exactly: every ledger row, the lease-nonce
// counter, the merged-lease map, the done set with the CRC of each done
// job's stored encoding (the bytes every later snapshot writes
// verbatim), and the canonical result document. grantedAt is
// deliberately absent — it is a metrics approximation, not ledger
// state.
func dispatcherFingerprint(t *testing.T, d *Dispatcher) string {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "nextLease=%d cancelled=%v finished=%v\n", d.q.nextLease, d.cancelled, d.finished)
	for _, row := range d.q.ledgerRows(nil) {
		fmt.Fprintf(&b, "row %+v\n", row)
	}
	for id, enc := range d.done {
		if enc != nil {
			fmt.Fprintf(&b, "done %d %d bytes crc %08x\n", id, len(enc), crc32.ChecksumIEEE(enc))
		}
	}
	merged := make([]int, 0, len(d.mergedLease))
	for id := range d.mergedLease {
		merged = append(merged, id)
	}
	sort.Ints(merged)
	for _, id := range merged {
		fmt.Fprintf(&b, "merged %d by lease %d\n", id, d.mergedLease[id])
	}
	canon, err := d.results.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b.Write(canon)
	return b.String()
}

// TestWALReplayPropertyRandomOps is the recovery property test: for
// random interleavings of grants, heartbeats, completions, failures,
// and expiries, rebuilding a dispatcher from its checkpoint + WAL at an
// arbitrary point reconstructs state canonically identical to the live
// one — and a torn WAL tail recovers to exactly the state of the
// longest intact prefix.
func TestWALReplayPropertyRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			spec := walTestSpec(t)
			dir := t.TempDir()
			opts := Options{
				CheckpointPath: filepath.Join(dir, "cp.json"),
				WALPath:        filepath.Join(dir, "log.wal"),
				WALSyncEvery:   1 + rng.Intn(4),
				// A low floor, so that mid-run compactions fire between
				// restarts even as the doubling schedule stretches them.
				CheckpointEvery: 1 + rng.Intn(3),
			}
			newDisp := func() *Dispatcher {
				camp, err := New(spec)
				if err != nil {
					t.Fatal(err)
				}
				d, err := NewDispatcher(camp, time.Minute, opts)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}

			now := time.Unix(1_700_000_000, 0)
			clock := func() time.Time { return now }
			d := newDisp()
			d.setClock(clock)

			type held struct {
				job    Job
				lease  int64
				worker string
			}
			var grants []held
			workers := []string{"w1", "w2", "w3"}
			restarts := 0
			// midRun counts compactions past each incarnation's startup one.
			midRun := func(d *Dispatcher) int64 { return d.metrics.WALCompactions.Load() - 1 }
			compactions := int64(0)
			for op := 0; op < 120; op++ {
				d.mu.Lock()
				finished := d.finished
				checkQueueCounts(t, d.q)
				d.mu.Unlock()
				if finished {
					break
				}
				switch rng.Intn(12) {
				case 0, 1, 2:
					w := workers[rng.Intn(len(workers))]
					resp := d.Lease(LeaseRequest{Worker: w, Max: 1 + rng.Intn(3)})
					for _, g := range resp.Grants {
						grants = append(grants, held{job: g.Job, lease: g.LeaseID, worker: w})
					}
				case 3:
					if len(grants) > 0 {
						g := grants[rng.Intn(len(grants))]
						d.Complete(CompleteRequest{Worker: g.worker, Heartbeat: []LeaseRef{{JobID: g.job.ID, LeaseID: g.lease}}}, 0)
					}
				case 4, 5, 6, 7:
					if len(grants) > 0 {
						// A random (possibly stale) grant completes; fenced and
						// duplicate deliveries are part of the property. Some
						// uploads also lease the worker's next jobs.
						g := grants[rng.Intn(len(grants))]
						resp := d.Complete(CompleteRequest{
							Worker:  g.worker,
							Results: []WorkerResult{{LeaseID: g.lease, Result: fakeResult(g.job)}},
							Lease:   rng.Intn(3),
						}, 0)
						if resp.Next != nil {
							for _, ng := range resp.Next.Grants {
								grants = append(grants, held{job: ng.Job, lease: ng.LeaseID, worker: g.worker})
							}
						}
					}
				case 8:
					if len(grants) > 0 {
						g := grants[rng.Intn(len(grants))]
						d.Complete(CompleteRequest{
							Worker:   g.worker,
							Failures: []WorkerFailure{{LeaseID: g.lease, JobID: g.job.ID, Err: "injected"}},
						}, 0)
					}
				case 9:
					// Let leases expire; the next protocol call sweeps them.
					now = now.Add(2 * time.Minute)
				default:
					// Simulated restart: rebuild from disk and require exact
					// state equality, then continue driving the rebuilt one.
					want := dispatcherFingerprint(t, d)
					d.mu.Lock()
					d.wal.close()
					d.mu.Unlock()
					compactions += midRun(d)
					d = newDisp()
					d.setClock(clock)
					restarts++
					if got := dispatcherFingerprint(t, d); got != want {
						t.Fatalf("op %d: recovery diverged from live state:\nlive:\n%s\nrecovered:\n%s", op, want, got)
					}
				}
			}
			if restarts == 0 {
				t.Fatalf("schedule produced no restarts; property not exercised")
			}
			if compactions += midRun(d); compactions == 0 {
				t.Fatalf("no mid-run compaction in %d restarts; recovery over compacted logs not exercised", restarts)
			}

			// Torn-tail property: recovering from a WAL cut at an arbitrary
			// byte equals recovering from its longest intact frame prefix.
			d.mu.Lock()
			d.wal.close()
			d.mu.Unlock()
			data, err := os.ReadFile(opts.WALPath)
			if err != nil {
				t.Fatal(err)
			}
			boundary := 0
			for boundary < len(data) {
				n, ok := harness.WireFrameLen(data[boundary:])
				if !ok {
					break
				}
				boundary += n
			}
			cut := rng.Intn(len(data) + 1)
			cleanCut := 0
			for cleanCut < cut {
				n, ok := harness.WireFrameLen(data[cleanCut:])
				if !ok || cleanCut+n > cut {
					break
				}
				cleanCut += n
			}
			_ = boundary
			tornState := recoveredFingerprint(t, spec, opts, data[:cut])
			prefixState := recoveredFingerprint(t, spec, opts, data[:cleanCut])
			if tornState != prefixState {
				t.Fatalf("torn tail (cut %d) diverged from intact prefix (cut %d):\ntorn:\n%s\nprefix:\n%s",
					cut, cleanCut, tornState, prefixState)
			}
		})
	}
}

// recoveredFingerprint clones the campaign's durable state (checkpoint
// family + the given WAL bytes) into a fresh directory, recovers a
// dispatcher there, and fingerprints it. The copy keeps the recovery's
// own startup compaction from mutating the caller's files.
func recoveredFingerprint(t *testing.T, spec Spec, opts Options, walBytes []byte) string {
	t.Helper()
	dir := t.TempDir()
	clone := Options{
		CheckpointPath:  filepath.Join(dir, "cp.json"),
		WALPath:         filepath.Join(dir, "log.wal"),
		WALSyncEvery:    opts.WALSyncEvery,
		CheckpointEvery: opts.CheckpointEvery,
	}
	for _, suffix := range []string{"", ".prev"} {
		if data, err := os.ReadFile(opts.CheckpointPath + suffix); err == nil {
			if err := os.WriteFile(clone.CheckpointPath+suffix, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := os.WriteFile(clone.WALPath, walBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDispatcher(camp, time.Minute, clone)
	if err != nil {
		t.Fatal(err)
	}
	fp := dispatcherFingerprint(t, d)
	d.mu.Lock()
	d.wal.close()
	d.mu.Unlock()
	return fp
}

// TestWALCancelPersists pins that cancellation survives a restart: a
// cancelled campaign must come back cancelled, not resume leasing.
func TestWALCancelPersists(t *testing.T) {
	spec := walTestSpec(t)
	dir := t.TempDir()
	opts := Options{
		CheckpointPath: filepath.Join(dir, "cp.json"),
		WALPath:        filepath.Join(dir, "log.wal"),
	}
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDispatcher(camp, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	d.Lease(LeaseRequest{Worker: "w", Max: 2})
	d.Cancel()
	if _, _, cancelled := d.Outcome(); !cancelled {
		t.Fatal("Cancel did not mark the run cancelled")
	}

	camp2, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDispatcher(camp2, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-d2.Finished():
	default:
		t.Fatal("restarted cancelled campaign did not finish immediately")
	}
	if _, _, cancelled := d2.Outcome(); !cancelled {
		t.Fatal("cancellation did not survive the restart")
	}
}

// flakySaveFS fails the first n checkpoint save attempts (at temp-file
// creation, before any bytes land) and then behaves normally.
type flakySaveFS struct {
	osCheckpointFS
	failures int
}

func (f *flakySaveFS) CreateTemp(dir, pattern string) (CheckpointFile, error) {
	if f.failures > 0 {
		f.failures--
		return nil, errors.New("flaky: injected save failure")
	}
	return f.osCheckpointFS.CreateTemp(dir, pattern)
}

// completeAll leases every job and uploads a fake result for each, one
// Complete call per job so every scheduled save fires.
func completeAll(t *testing.T, d *Dispatcher) {
	t.Helper()
	resp := d.Lease(LeaseRequest{Worker: "w", Max: 1 << 20})
	for _, g := range resp.Grants {
		d.Complete(CompleteRequest{
			Worker:  "w",
			Results: []WorkerResult{{LeaseID: g.LeaseID, Result: fakeResult(g.Job)}},
		}, 0)
	}
}

// TestDispatcherCheckpointErrSemantics is the regression test for the
// transient-vs-final durability contract: mid-run save failures must
// not fail a campaign whose closing save lands; only a closing save
// that fails every retry surfaces in Outcome.
func TestDispatcherCheckpointErrSemantics(t *testing.T) {
	spec := walTestSpec(t)
	jobs := func() int {
		camp, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		return len(camp.Jobs())
	}()

	t.Run("transient failures then clean final save", func(t *testing.T) {
		// At a floor of 1 every exchange is a scheduled save until one
		// lands, so every mid-run save fails, plus the first closing
		// attempt; the retry loop's second attempt lands. The campaign
		// must succeed.
		camp, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		metrics := &Metrics{}
		fsys := &flakySaveFS{failures: jobs + 1}
		d, err := NewDispatcher(camp, time.Minute, Options{
			CheckpointPath:  filepath.Join(t.TempDir(), "cp.json"),
			CheckpointFS:    fsys,
			CheckpointEvery: 1,
			Metrics:         metrics,
		})
		if err != nil {
			t.Fatal(err)
		}
		completeAll(t, d)
		select {
		case <-d.Finished():
		default:
			t.Fatal("campaign did not finish")
		}
		if _, cpErr, _ := d.Outcome(); cpErr != nil {
			t.Fatalf("transient save failures failed the campaign: %v", cpErr)
		}
		if got := metrics.CheckpointErrors.Load(); got != int64(jobs+1) {
			t.Fatalf("checkpoint_errors = %d, want %d (every transient failure counted)", got, jobs+1)
		}
	})

	t.Run("final save exhausts retries", func(t *testing.T) {
		camp, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDispatcher(camp, time.Minute, Options{
			CheckpointPath: filepath.Join(t.TempDir(), "cp.json"),
			CheckpointFS:   &flakySaveFS{failures: 1 << 30},
		})
		if err != nil {
			t.Fatal(err)
		}
		completeAll(t, d)
		if _, cpErr, _ := d.Outcome(); cpErr == nil {
			t.Fatal("closing save failed every retry yet the campaign reported success")
		}
	})

	t.Run("transient compaction failures in WAL mode", func(t *testing.T) {
		// Same contract with the durable plane on: failed compactions are
		// transient (the log still holds the history), only the closing
		// save matters.
		camp, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		d, err := NewDispatcher(camp, time.Minute, Options{
			CheckpointPath:  filepath.Join(dir, "cp.json"),
			WALPath:         filepath.Join(dir, "log.wal"),
			CheckpointFS:    &flakySaveFS{failures: 3},
			CheckpointEvery: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		completeAll(t, d)
		if _, cpErr, _ := d.Outcome(); cpErr != nil {
			t.Fatalf("transient compaction failures failed the campaign: %v", cpErr)
		}
	})
}

// nextSave is the terminal row count at which the doubling schedule
// saves next after a snapshot holding terminal rows.
func nextSave(floor, terminal int) int { return terminal + max(floor, terminal) }

// TestWALCompactionDoublingSchedule pins the one snapshot schedule, with
// a WAL and without: with a floor of 3, a dispatcher saves when the
// terminal transitions since its last snapshot reach max(3, terminal
// rows in that snapshot) — at 3, 6, 12, 24, 48 and 96 terminal rows,
// dead letters included — and closes with a save at 120. At no point
// does the snapshot on disk miss that bound's worth of terminal rows or
// more: that bounds the log a WAL replays, and what a hard kill re-runs
// without one. Over the run the saves write at most four times the
// final snapshot's bytes.
func TestWALCompactionDoublingSchedule(t *testing.T) {
	spec := Spec{
		Tests: []string{"sb", "mp", "lb"}, Tools: []string{"litmus7-user"},
		Iterations: 400, ShardSize: 10, // 120 jobs
		MaxRetries: -1, // no retries: a failure dead-letters
	}
	const floor = 3
	for _, withWAL := range []bool{true, false} {
		name := "no-wal"
		if withWAL {
			name = "wal"
		}
		t.Run(name, func(t *testing.T) {
			camp, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			metrics := &Metrics{}
			opts := Options{
				CheckpointPath:  filepath.Join(dir, "cp.json"),
				CheckpointEvery: floor,
				Metrics:         metrics,
			}
			if withWAL {
				opts.WALPath = filepath.Join(dir, "log.wal")
				opts.WALSyncEvery = 1
			}
			d, err := NewDispatcher(camp, time.Minute, opts)
			if err != nil {
				t.Fatal(err)
			}
			startup := int64(0)
			if withWAL {
				startup = 1 // the startup compaction
			}
			if got := metrics.CheckpointSaves.Load(); got != startup {
				t.Fatalf("%d saves at startup, want %d", got, startup)
			}

			// onDisk checks the snapshot on disk against the last scheduled
			// save, at last terminal rows, and the rows it misses against
			// the schedule's bound; with a WAL, also the log's terminal
			// records against the snapshot.
			onDisk := func(terminal, last int) {
				t.Helper()
				done, ledger, _, err := LoadCheckpointLedgerFS(osCheckpointFS{}, opts.CheckpointPath, camp.Spec)
				if err != nil && !(os.IsNotExist(err) && last == 0) {
					t.Fatal(err)
				}
				if want := max(last-1, 0); len(done) != want { // the first job dead-lettered
					t.Fatalf("at %d terminal rows the snapshot holds %d results, want %d", terminal, len(done), want)
				}
				if terminal-last >= max(floor, last) {
					t.Fatalf("at %d terminal rows the snapshot misses %d, past the bound max(%d, %d)", terminal, terminal-last, floor, last)
				}
				if !withWAL {
					return
				}
				snap := len(done)
				for _, row := range ledger.Rows {
					if row.Failed {
						snap++
					}
				}
				rep, err := replayWAL(osCheckpointFS{}, opts.WALPath, specWALCRC(camp.Spec))
				if err != nil {
					t.Fatal(err)
				}
				logged := 0
				for _, rec := range rep.recs {
					if rec.Kind == walKindComplete || rec.Kind == walKindDeadLetter {
						logged++
					}
				}
				if logged > max(floor, snap) {
					t.Fatalf("at %d terminal rows the log holds %d terminal records over a snapshot of %d", terminal, logged, snap)
				}
			}

			var at []int
			terminal, last := 0, 0
			for {
				lease := d.Lease(LeaseRequest{Worker: "w", Max: 1})
				if lease.Done {
					break
				}
				g := lease.Grants[0]
				req := CompleteRequest{Worker: "w"}
				if terminal == 0 {
					// The first job dead-letters.
					req.Failures = []WorkerFailure{{LeaseID: g.LeaseID, JobID: g.Job.ID, Err: "injected"}}
				} else {
					req.Results = []WorkerResult{{LeaseID: g.LeaseID, Result: fakeResult(g.Job)}}
				}
				before := metrics.CheckpointSaves.Load()
				d.Complete(req, 0)
				terminal++
				if metrics.CheckpointSaves.Load() != before {
					at, last = append(at, terminal), terminal
				}
				if terminal < len(camp.jobs) {
					onDisk(terminal, last)
				}
			}
			if want := []int{3, 6, 12, 24, 48, 96, 120}; !slices.Equal(at, want) {
				t.Fatalf("saved at %v terminal rows, want %v (the last one closing)", at, want)
			}
			if withWAL {
				if got := metrics.WALCompactions.Load(); got != startup+6 {
					t.Fatalf("%d compactions, want the startup one plus 6 scheduled", got)
				}
			}
			if res, err, _ := d.Outcome(); err != nil || len(res.Failures) != 1 {
				t.Fatalf("outcome: %d failures, err %v", len(res.Failures), err)
			}
			fi, err := os.Stat(opts.CheckpointPath)
			if err != nil {
				t.Fatal(err)
			}
			if written := metrics.CheckpointBytes.Load(); written > 4*fi.Size() {
				t.Fatalf("saves wrote %d bytes, more than 4x the final snapshot's %d", written, fi.Size())
			}
		})
	}
}

// TestCheckpointIndentedLoads: snapshots written with an indented
// envelope, as earlier versions saved them, still load — the CRC covers
// the compacted payload — and decode to what a compact save of the
// same state decodes to: the state that was saved.
func TestCheckpointIndentedLoads(t *testing.T) {
	spec := walTestSpec(t)
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := map[int]*JobResult{}
	for _, job := range camp.jobs[:5] {
		done[job.ID] = fakeResult(job)
	}
	ledger := &LedgerSnapshot{NextLease: 9, Rows: []LedgerRow{
		{JobID: 5, State: int(stateLeased), LeaseID: 9, Worker: "w", Expires: 1_700_000_000_000_000_000},
		{JobID: 6, State: int(stateDone), Attempts: 3, Failed: true, FailErr: "boom"},
	}}
	dir := t.TempDir()
	compact := filepath.Join(dir, "compact.json")
	if err := SaveCheckpointLedgerFS(osCheckpointFS{}, compact, spec, done, ledger); err != nil {
		t.Fatal(err)
	}

	// The earlier writer: compact payload, indented envelope.
	cp := Checkpoint{Version: checkpointVersion, Spec: spec, Ledger: ledger}
	for _, job := range camp.jobs[:5] {
		cp.Done = append(cp.Done, done[job.ID])
	}
	payload, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	env := checkpointEnvelope{Version: checkpointVersion, CRC32: crc32.ChecksumIEEE(payload), Payload: payload}
	data, err := json.MarshalIndent(&env, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	indented := filepath.Join(dir, "indented.json")
	if err := os.WriteFile(indented, data, 0o644); err != nil {
		t.Fatal(err)
	}
	compactData, err := os.ReadFile(compact)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(compactData, []byte("\n")) || len(compactData) >= len(data) {
		t.Fatalf("save wrote %d bytes with newlines=%v; the indented form is %d", len(compactData), bytes.Contains(compactData, []byte("\n")), len(data))
	}

	for _, path := range []string{compact, indented} {
		gotDone, gotLedger, recovered, err := LoadCheckpointLedgerFS(osCheckpointFS{}, path, spec)
		if err != nil || recovered {
			t.Fatalf("%s: recovered=%v err=%v", filepath.Base(path), recovered, err)
		}
		if !reflect.DeepEqual(gotDone, done) || !reflect.DeepEqual(gotLedger, ledger) {
			t.Fatalf("%s decoded to a different state", filepath.Base(path))
		}
	}
}

// TestWALRecoverDowngradesResultlessDoneRow: a snapshot whose ledger
// marks a job done without carrying its result (no correct writer
// produces one) recovers with that job pending again, and the ledger's
// counts still agree with a scan — the downgrade goes through the same
// state helper as every other transition.
func TestWALRecoverDowngradesResultlessDoneRow(t *testing.T) {
	camp, err := New(walTestSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := Options{CheckpointPath: filepath.Join(dir, "cp.json"), WALPath: filepath.Join(dir, "log.wal")}
	done := map[int]*JobResult{1: fakeResult(camp.jobs[1])}
	ledger := &LedgerSnapshot{Rows: []LedgerRow{
		{JobID: 0, State: int(stateDone)}, // result missing
		{JobID: 1, State: int(stateDone)},
	}}
	if err := SaveCheckpointLedgerFS(osCheckpointFS{}, opts.CheckpointPath, camp.Spec, done, ledger); err != nil {
		t.Fatal(err)
	}
	d, err := NewDispatcher(camp, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	checkQueueCounts(t, d.q)
	if e := d.q.entries[0]; e.state != statePending {
		t.Fatalf("resultless done row recovered as state %d, want pending", e.state)
	}
	if pending, _, done, _ := d.q.counts(); pending != len(camp.jobs)-1 || done != 1 {
		t.Fatalf("counts pending=%d done=%d, want %d and 1", pending, done, len(camp.jobs)-1)
	}
}
