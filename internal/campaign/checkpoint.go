package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
)

// checkpointVersion guards the snapshot format; version 2 wraps the
// snapshot in a CRC-carrying envelope so disk corruption is detected at
// load instead of silently mis-merging.
const checkpointVersion = 2

// checkpointPrevSuffix names the rotated last-good snapshot kept beside
// the active one. Every successful save moves the previous active file
// here, so a snapshot that later turns out corrupt (bit rot, torn
// write that slipped past fsync) has a verified predecessor to fall
// back to — a resume then merely re-runs the handful of jobs completed
// since, reaching identical totals.
const checkpointPrevSuffix = ".prev"

// ErrCheckpointCorrupt marks a snapshot whose bytes cannot be trusted:
// undecodable JSON, a CRC mismatch, or an unreadable payload. Loaders
// fall back to the rotated last-good snapshot when they see it.
var ErrCheckpointCorrupt = errors.New("checkpoint corrupt")

// Checkpoint is the on-disk campaign snapshot: the (defaulted) spec that
// generated the job list plus every completed job's full result. Because
// job results are deterministic functions of their shard seed, and
// campaign aggregation is order-invariant, restoring Done and running
// only the remaining jobs reproduces the uninterrupted campaign's totals
// exactly.
type Checkpoint struct {
	Version int          `json:"version"`
	Spec    Spec         `json:"spec"`
	Done    []*JobResult `json:"done"`
	// Ledger, when present, is the dispatch lease ledger at save time —
	// the compaction target the write-ahead log folds into. Absent for
	// local runs and pre-WAL snapshots; a dispatcher restoring a snapshot
	// without one falls back to re-leasing everything not done.
	Ledger *LedgerSnapshot `json:"ledger,omitempty"`
}

// LedgerSnapshot is the lease ledger's full state inside a checkpoint:
// every queue row, the grant-nonce high-water mark, and the nonce each
// merged upload carried (what keeps duplicate-vs-fenced classification
// exact across a restart). Rows cover jobs that entered the queue this
// incarnation; jobs restored as done before the queue was built have no
// row and need none.
type LedgerSnapshot struct {
	NextLease int64         `json:"next_lease"`
	Cancelled bool          `json:"cancelled,omitempty"`
	Rows      []LedgerRow   `json:"rows"`
	Merged    []MergedLease `json:"merged,omitempty"`
}

// LedgerRow mirrors one queueEntry. State uses the leaseState values
// (0 pending, 1 leased, 2 done); Expires is Unix nanoseconds.
type LedgerRow struct {
	JobID    int    `json:"job_id"`
	State    int    `json:"state"`
	LeaseID  int64  `json:"lease_id,omitempty"`
	Worker   string `json:"worker,omitempty"`
	Expires  int64  `json:"expires,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Failed   bool   `json:"failed,omitempty"`
	FailErr  string `json:"fail_err,omitempty"`
}

// MergedLease records which lease nonce a merged job's upload carried.
type MergedLease struct {
	JobID   int   `json:"job_id"`
	LeaseID int64 `json:"lease_id"`
}

// checkpointEnvelope is the version-2 file format: the compact-encoded
// Checkpoint plus its IEEE CRC-32. The CRC is computed over the
// compacted payload bytes so whitespace cannot perturb it: saves write
// the envelope compact, and snapshots written indented (as earlier
// versions did) load unchanged.
type checkpointEnvelope struct {
	Version int             `json:"version"`
	CRC32   uint32          `json:"crc32"`
	Payload json.RawMessage `json:"payload"`
}

// SaveCheckpoint writes a snapshot without a ledger section on the real
// filesystem; see SaveCheckpointLedgerFS.
func SaveCheckpoint(path string, spec Spec, done map[int]*JobResult) error {
	return SaveCheckpointLedgerFS(osCheckpointFS{}, path, spec, done, nil)
}

// SaveCheckpointLedgerFS writes a snapshot durably and atomically through
// fsys: temp file in the destination directory, fsync, rename over the
// active path, directory sync. The previous active snapshot is rotated
// to path+".prev" first, so there is always at most one unverified file
// — a crash at any point leaves either the old snapshot, the new one,
// or (between the two renames) only the rotated last-good copy, which
// LoadCheckpointLedgerFS recovers. Done is stored sorted by job ID for
// stable diffs. A non-nil ledger is the dispatch lease ledger — the WAL
// compaction path: the snapshot absorbs the log's state so the log can
// be truncated. It encodes spec and every result, then writes them with
// the snapshot writer a Dispatcher saves through. A Dispatcher does not
// call it: it keeps its results encoded between saves (see
// Dispatcher.done), so its saves encode none.
func SaveCheckpointLedgerFS(fsys CheckpointFS, path string, spec Spec, done map[int]*JobResult, ledger *LedgerSnapshot) error {
	sw, err := newSnapshotWriter(spec)
	if err != nil {
		return err
	}
	results := make([]*JobResult, 0, len(done))
	for _, jr := range done {
		results = append(results, jr)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].JobID < results[j].JobID })
	enc := make([][]byte, len(results))
	for i, jr := range results {
		enc[i] = encodeResult(jr)
	}
	_, err = sw.save(fsys, path, enc, ledger)
	return err
}

// encodeResult is a done result's compact JSON: the bytes a snapshot's
// done array holds for it. A JobResult has only integers, strings, a
// string-keyed map and a string slice, which encoding/json cannot fail
// on.
func encodeResult(jr *JobResult) []byte {
	b, err := json.Marshal(jr)
	if err != nil {
		panic(fmt.Sprintf("campaign: encoding job %d result: %v", jr.JobID, err))
	}
	return b
}

// Fixed parts of the envelope and of its payload, the compact
// Checkpoint encoding.
var (
	envelopeHead  = []byte(`{"version":` + strconv.Itoa(checkpointVersion) + `,"crc32":`)
	envelopeBody  = []byte(`,"payload":`)
	payloadHead   = []byte(`{"version":` + strconv.Itoa(checkpointVersion) + `,"spec":`)
	payloadDone   = []byte(`,"done":[`)
	payloadSep    = []byte(`,`)
	payloadLedger = []byte(`],"ledger":`)
	payloadEnd    = []byte(`]}`)
	closeBrace    = []byte(`}`)
)

// snapshotWriter writes checkpoint files from parts encoded ahead of
// time: the spec, encoded once per writer, and each done result's
// compact JSON, encoded once when the result was merged, restored or
// replayed. A save encodes only the ledger section, when it has one,
// and streams envelope and payload through a reused buffered writer, so
// the allocations of a save without a ledger do not grow with the done
// count. The bytes are json.Marshal's for the Checkpoint, wrapped by the envelope, and
// the CRC is computed over the same parts, in the same order, before
// any of them is written.
type snapshotWriter struct {
	spec []byte        // compact JSON of the spec
	head []byte        // the envelope prefix of the save in progress
	crc  crcWriter     // the payload's CRC, summed ahead of the write
	bw   *bufio.Writer // reset onto each save's temp file
}

// newSnapshotWriter encodes spec for every snapshot the writer saves.
func newSnapshotWriter(spec Spec) (*snapshotWriter, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("campaign: encoding checkpoint: %w", err)
	}
	return &snapshotWriter{spec: b, bw: bufio.NewWriter(nil)}, nil
}

// crcWriter sums the IEEE CRC-32 of what is written to it, and counts
// the bytes.
type crcWriter struct {
	sum uint32
	n   int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.sum = crc32.Update(c.sum, crc32.IEEETable, p)
	c.n += int64(len(p))
	return len(p), nil
}

// writePayload writes the compact Checkpoint encoding to w: the spec,
// the non-empty entries of done (in the order given, job-ID order) and,
// when it is not nil, the encoded ledger section. A save calls it
// twice, into the CRC and into the file; write errors stick in the
// bufio.Writer and surface at its Flush.
func (sw *snapshotWriter) writePayload(w io.Writer, done [][]byte, ledger []byte) {
	w.Write(payloadHead)
	w.Write(sw.spec)
	w.Write(payloadDone)
	sep := false
	for _, r := range done {
		if len(r) == 0 {
			continue
		}
		if sep {
			w.Write(payloadSep)
		}
		w.Write(r)
		sep = true
	}
	if ledger == nil {
		w.Write(payloadEnd)
		return
	}
	w.Write(payloadLedger)
	w.Write(ledger)
	w.Write(closeBrace)
}

// save writes one snapshot of done and ledger (nil for none) through
// fsys, as SaveCheckpointLedgerFS describes, and returns the file's size.
func (sw *snapshotWriter) save(fsys CheckpointFS, path string, done [][]byte, ledger *LedgerSnapshot) (int64, error) {
	var lg []byte
	if ledger != nil {
		var err error
		if lg, err = json.Marshal(ledger); err != nil {
			return 0, fmt.Errorf("campaign: encoding checkpoint: %w", err)
		}
	}
	sw.crc = crcWriter{}
	sw.writePayload(&sw.crc, done, lg)
	sw.head = append(sw.head[:0], envelopeHead...)
	sw.head = strconv.AppendUint(sw.head, uint64(sw.crc.sum), 10)
	sw.head = append(sw.head, envelopeBody...)

	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("campaign: writing checkpoint: %w", err)
	}
	defer fsys.Remove(tmp.Name())
	sw.bw.Reset(tmp)
	sw.bw.Write(sw.head)
	sw.writePayload(sw.bw, done, lg)
	sw.bw.Write(closeBrace)
	err = sw.bw.Flush()
	sw.bw.Reset(nil)
	if err != nil {
		tmp.Close()
		return 0, fmt.Errorf("campaign: writing checkpoint: %w", err)
	}
	// fsync before rename: without it, a crash shortly after the rename
	// can leave the new name pointing at a zero-length or torn file on
	// journaled filesystems that reorder data behind metadata.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("campaign: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("campaign: writing checkpoint: %w", err)
	}
	// Rotate the current snapshot to last-good before installing the new
	// one. ENOENT just means this is the first save.
	if err := fsys.Rename(path, path+checkpointPrevSuffix); err != nil && !os.IsNotExist(err) {
		return 0, fmt.Errorf("campaign: rotating checkpoint: %w", err)
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return 0, fmt.Errorf("campaign: committing checkpoint: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return 0, fmt.Errorf("campaign: syncing checkpoint directory: %w", err)
	}
	return int64(len(sw.head)) + sw.crc.n + int64(len(closeBrace)), nil
}

// LoadCheckpointLedgerFS reads and verifies a snapshot through fsys,
// returning its done results and the dispatch lease ledger it stores
// (nil for snapshots saved without a WAL). When the active snapshot is
// corrupt (CRC mismatch, undecodable bytes) — or missing while the
// rotated last-good one exists, the signature of a crash between the
// two save renames — it falls back to path+".prev" and reports
// recovered=true. A corrupt active snapshot with no usable fallback is
// an error: silently restarting from scratch would hide data loss from
// the operator.
func LoadCheckpointLedgerFS(fsys CheckpointFS, path string, spec Spec) (done map[int]*JobResult, ledger *LedgerSnapshot, recovered bool, err error) {
	done, ledger, err = loadCheckpointFile(fsys, path, spec)
	if err == nil {
		return done, ledger, false, nil
	}
	if !errors.Is(err, ErrCheckpointCorrupt) && !os.IsNotExist(err) {
		// Spec mismatch, version from the future, duplicate jobs: the file
		// is intact but wrong, and the rotated copy was written by the same
		// campaign — falling back cannot help.
		return nil, nil, false, err
	}
	prev, prevLedger, prevErr := loadCheckpointFile(fsys, path+checkpointPrevSuffix, spec)
	if prevErr == nil {
		return prev, prevLedger, true, nil
	}
	// No usable fallback: surface the original failure (for a missing
	// active file that is simply "fresh campaign", which callers detect
	// with os.IsNotExist).
	return nil, nil, false, err
}

// loadCheckpointFile reads one snapshot file and verifies its
// version-2 envelope's CRC.
func loadCheckpointFile(fsys CheckpointFS, path string, spec Spec) (map[int]*JobResult, *LedgerSnapshot, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var env checkpointEnvelope
	if err := json.Unmarshal(data, &env); err != nil || env.Version == 0 {
		return nil, nil, fmt.Errorf("campaign: checkpoint %s is not a decodable snapshot: %w", path, ErrCheckpointCorrupt)
	}
	if env.Version != checkpointVersion {
		return nil, nil, fmt.Errorf("campaign: checkpoint %s has version %d, want %d", path, env.Version, checkpointVersion)
	}
	if len(env.Payload) == 0 {
		return nil, nil, fmt.Errorf("campaign: checkpoint %s has no payload: %w", path, ErrCheckpointCorrupt)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, env.Payload); err != nil {
		return nil, nil, fmt.Errorf("campaign: checkpoint %s payload: %v: %w", path, err, ErrCheckpointCorrupt)
	}
	if got := crc32.ChecksumIEEE(compact.Bytes()); got != env.CRC32 {
		return nil, nil, fmt.Errorf("campaign: checkpoint %s CRC mismatch (%08x on disk, %08x computed): %w",
			path, env.CRC32, got, ErrCheckpointCorrupt)
	}
	var cp Checkpoint
	if err := json.Unmarshal(env.Payload, &cp); err != nil {
		return nil, nil, fmt.Errorf("campaign: checkpoint %s payload: %v: %w", path, err, ErrCheckpointCorrupt)
	}
	if err := cp.Spec.Validate(); err != nil {
		return nil, nil, fmt.Errorf("campaign: checkpoint %s spec: %w", path, err)
	}
	if !reflect.DeepEqual(normalizeSpec(cp.Spec), normalizeSpec(spec)) {
		return nil, nil, fmt.Errorf("campaign: checkpoint %s was written by a different spec", path)
	}
	done := make(map[int]*JobResult, len(cp.Done))
	for _, jr := range cp.Done {
		if jr == nil {
			continue
		}
		if _, dup := done[jr.JobID]; dup {
			return nil, nil, fmt.Errorf("campaign: checkpoint %s lists job %d twice", path, jr.JobID)
		}
		done[jr.JobID] = jr
	}
	return done, cp.Ledger, nil
}

// normalizeSpec strips fields that do not influence the job list or its
// results, so a resume may legitimately change them (worker count,
// retry budget, name).
func normalizeSpec(s Spec) Spec {
	s.Name = ""
	s.Workers = 0
	s.MaxRetries = 0
	return s
}
