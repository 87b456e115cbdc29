package campaign

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// memFS is a read-only in-memory WALFS: the decoder fuzz targets hand
// the resume path bytes without touching disk. Writes fail, which
// recovery tolerates — a failed startup compaction leaves the log as it
// was.
type memFS map[string][]byte

var errReadOnly = errors.New("memFS is read-only")

func (m memFS) ReadFile(name string) ([]byte, error) {
	if data, ok := m[name]; ok {
		return data, nil
	}
	return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
}

func (memFS) CreateTemp(string, string) (CheckpointFile, error) { return nil, errReadOnly }
func (memFS) Rename(string, string) error                       { return errReadOnly }
func (memFS) Remove(string) error                               { return nil }
func (memFS) SyncDir(string) error                              { return nil }
func (memFS) OpenAppend(string) (WALFile, error)                { return nil, errReadOnly }

// fuzzCampaign is the small campaign the decoder fuzz targets resume:
// 12 litmus7 jobs, one retry of budget.
func fuzzCampaign(tb testing.TB) *Campaign {
	tb.Helper()
	camp, err := New(Spec{
		Tests: []string{"sb", "mp", "lb"}, Tools: []string{"litmus7-user"},
		Iterations: 40, ShardSize: 10, MaxRetries: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return camp
}

// recordedRun drives a WAL-backed dispatcher through grants, a failure,
// merges and a mid-run compaction, and returns real on-disk bytes: the
// log before that compaction, the mid-run snapshot (live leases in its
// ledger), and the final snapshot.
func recordedRun(tb testing.TB, camp *Campaign, dir string) (wal, midCheckpoint, finalCheckpoint []byte) {
	tb.Helper()
	opts := Options{
		CheckpointPath:  filepath.Join(dir, "cp.json"),
		WALPath:         filepath.Join(dir, "cp.wal"),
		CheckpointEvery: 1 << 20,
	}
	d, err := NewDispatcher(camp, time.Minute, opts)
	if err != nil {
		tb.Fatal(err)
	}
	read := func(path string) []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	failed := false
	for round := 0; ; round++ {
		lease := d.Lease(LeaseRequest{Worker: "w", Max: 2})
		if lease.Done {
			break
		}
		req := CompleteRequest{Worker: "w"}
		for _, g := range lease.Grants {
			if !failed {
				failed = true
				req.Failures = append(req.Failures, WorkerFailure{LeaseID: g.LeaseID, JobID: g.Job.ID, Err: "transient"})
				continue
			}
			req.Results = append(req.Results, WorkerResult{LeaseID: g.LeaseID, Result: fakeResult(g.Job)})
		}
		if round == 3 {
			// Snapshot while two leases are out, then keep going.
			wal = read(opts.WALPath)
			d.mu.Lock()
			_ = d.snapshotLocked()
			d.mu.Unlock()
			midCheckpoint = read(opts.CheckpointPath)
		}
		d.Complete(req, 0)
	}
	return wal, midCheckpoint, read(opts.CheckpointPath)
}

// damaged returns data with torn, bit-flipped and oversized variants.
func damaged(data []byte, oversized []byte) [][]byte {
	out := [][]byte{data, data[:len(data)/2], data[:len(data)-1]}
	for _, i := range []int{0, 5, len(data) / 3, len(data) / 2, len(data) - 2} {
		flipped := bytes.Clone(data)
		flipped[i] ^= 0x04
		out = append(out, flipped)
	}
	return append(out, append(bytes.Clone(data), oversized...))
}

// checkResumed is the resume path's property: whatever bytes it
// accepted, the totals are exactly the fold of the restored done set,
// every restored result matches its job, and no job is both merged and
// dead-lettered.
func checkResumed(t *testing.T, camp *Campaign, d *Dispatcher) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	checkQueueCounts(t, d.q)
	done := doneResults(t, d)
	if err := camp.validateRestored(done); err != nil {
		t.Fatalf("resume merged a result that contradicts its job: %v", err)
	}
	ids := make([]int, 0, len(done))
	for id, jr := range done {
		if jr.JobID != id {
			t.Fatalf("done[%d] holds job %d", id, jr.JobID)
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	ref := NewResults()
	for _, id := range ids {
		ref.Add(done[id])
	}
	for _, f := range d.results.Failures {
		if _, merged := done[f.JobID]; merged {
			t.Fatalf("job %d is both merged and dead-lettered", f.JobID)
		}
		ref.AddFailure(f)
	}
	want, err := ref.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.results.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed totals are not the fold of the done set:\nfold:\n%s\ntotals:\n%s", want, got)
	}
}

// FuzzCheckpointLoad feeds arbitrary snapshot bytes to the checkpoint
// loader and, when it accepts them, to a dispatcher resuming from them.
// Each input must yield an error or a restored state that passes
// validateRestored and folds to its own totals — never a panic.
func FuzzCheckpointLoad(f *testing.F) {
	camp := fuzzCampaign(f)
	_, mid, final := recordedRun(f, camp, f.TempDir())
	huge := append([]byte(`{"version":2,"crc32":0,"payload":[`), bytes.Repeat([]byte("0,"), 1<<15)...)
	huge = append(huge, "0]}"...)
	for _, seed := range [][]byte{mid, final} {
		for _, v := range damaged(seed, bytes.Repeat([]byte{' '}, 1<<16)) {
			f.Add(v)
		}
	}
	f.Add(huge)
	f.Add([]byte(`{"version":1,"spec":{},"done":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		fsys := memFS{"cp.json": data}
		if _, _, err := loadCheckpointFile(fsys, "cp.json", camp.Spec); err != nil {
			return
		}
		d, err := NewDispatcher(camp, time.Minute, Options{CheckpointPath: "cp.json", WALPath: "cp.wal", CheckpointFS: fsys})
		if err != nil {
			return // validateRestored refused the snapshot
		}
		checkResumed(t, camp, d)
	})
}

// FuzzWALReplay feeds arbitrary log bytes to the WAL scanner and to a
// dispatcher replaying them. Damage must end the scan as a truncation
// at a frame boundary — the valid prefix rescans clean — and whatever
// replays must pass validateRestored and fold to its own totals.
func FuzzWALReplay(f *testing.F) {
	camp := fuzzCampaign(f)
	wal, _, _ := recordedRun(f, camp, f.TempDir())
	// A frame header that claims a body of 2^40 bytes.
	oversized := binary.AppendUvarint(bytes.Clone(wal[:4]), 1<<40)
	for _, v := range damaged(wal, append(oversized, 0, 0, 0, 0)) {
		f.Add(v)
	}
	crc := specWALCRC(camp.Spec)

	f.Fuzz(func(t *testing.T, data []byte) {
		fsys := memFS{"cp.wal": data}
		rep, err := replayWAL(fsys, "cp.wal", crc)
		if err != nil {
			return // not this campaign's log
		}
		if !bytes.HasPrefix(data, rep.prefix) || (rep.truncated == 0) != (len(rep.prefix) == len(data)) {
			t.Fatalf("scan kept %d of %d bytes with truncated=%d", len(rep.prefix), len(data), rep.truncated)
		}
		again, err := replayWAL(memFS{"cp.wal": rep.prefix}, "cp.wal", crc)
		if err != nil || again.truncated != 0 || len(again.recs) != len(rep.recs) {
			t.Fatalf("valid prefix rescanned as %d records, truncated=%d, err=%v; first scan had %d",
				len(again.recs), again.truncated, err, len(rep.recs))
		}
		d, err := NewDispatcher(camp, time.Minute, Options{CheckpointPath: "cp.json", WALPath: "cp.wal", CheckpointFS: fsys})
		if err != nil {
			t.Fatalf("replay of an accepted log failed: %v", err)
		}
		checkResumed(t, camp, d)
	})
}
