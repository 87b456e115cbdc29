package campaign

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"perple/internal/harness"
)

// The dispatch write-ahead log makes the lease ledger durable: every
// state transition — grant, heartbeat extension, completion (with its
// merged-lease nonce), requeue, dead-letter, cancellation — appends one
// CRC-framed record, and the exchange's commit makes them durable before
// the response acknowledging them leaves the dispatcher. On restart the dispatcher replays snapshot + WAL suffix
// and reconstructs the exact ledger, so a crash no longer forgets which
// uploads merged or silently re-leases completed shards.
//
// Records reuse the PWB1 envelope discipline from wirebin.go: each is a
// standalone frame of magic | uvarint body length | body | CRC-32C, so
// the log is scanned frame by frame and a torn tail (a crash or
// partial_append fault mid-record) is detected by the frame scan or the
// CRC and truncated — never fatal, because the log only ever improves
// recovery precision; correctness rests on the completion fence and
// per-shard determinism either way.
//
// Durability is group-committed per exchange: append only writes, and
// each dispatcher entry point (Lease, complete, Cancel) ends
// with one commit, which fsyncs once the records written since the last
// fsync reach syncEvery — counted across exchanges, so syncEvery 1 is
// one fsync per exchange that logged anything, however many records it
// wrote (an upload that merges a shard and grants the next one logs two). Compaction folds the log into the v2
// checksummed checkpoint (which carries the full ledger snapshot, see
// LedgerSnapshot) and then truncates the log via atomic rename of a
// fresh segment. The rename happens only after a successful checkpoint
// save, so a crash between the two leaves a stale log suffix over a
// newer snapshot — which replay tolerates, because every record states
// the absolute resulting row (last record per job wins).
//
// Append errors (disk full, partial_append faults) put the log in
// degraded mode: no further appends land until the next compaction
// installs a fresh segment. That keeps damage confined to the tail —
// the scan property replay depends on — at the cost of recovery
// precision for the degraded window, which the checkpoint still bounds.

// WAL record kinds. The kind is the first uvarint of every record body;
// the layout of the rest is fixed per kind (see walRecord).
const (
	// walKindBegin heads every segment: the CRC of the normalized spec,
	// so replay refuses a log written by a different campaign.
	walKindBegin = iota
	// walKindGrant records a lease grant (job, nonce, worker, expiry).
	walKindGrant
	// walKindExtend records a heartbeat extension of a live lease.
	walKindExtend
	// walKindComplete records a merged upload: the lease nonce that
	// carried it plus the full job result.
	walKindComplete
	// walKindRequeue records a return to pending — lease expiry, a
	// worker-reported failure with budget remaining, or a drain release —
	// with the absolute attempts count and last error after it.
	walKindRequeue
	// walKindDeadLetter records a job whose retry budget ran out.
	walKindDeadLetter
	// walKindCancel records campaign cancellation.
	walKindCancel
)

// walRecord is one ledger transition, encoded as its own PWB1 frame.
// Which fields are meaningful depends on Kind; the body layout is the
// field order below per kind and is frozen — like the upload codec, a
// layout change means a new magic, not a silent re-reading.
type walRecord struct {
	Kind int
	// SpecCRC identifies the campaign (walKindBegin).
	SpecCRC uint32
	// JobID names the row (grant, extend, requeue, dead-letter).
	// Complete records carry it inside Result.
	JobID int
	// LeaseID is the grant nonce (grant, extend, complete).
	LeaseID int64
	// Worker holds the grant (grant).
	Worker string
	// Expires is the lease deadline in Unix nanoseconds (grant, extend).
	Expires int64
	// Attempts is the absolute retry-budget consumption after the
	// transition (requeue, dead-letter).
	Attempts int
	// Err is the last failure message (requeue, dead-letter).
	Err string
	// Result is the merged shard result (complete).
	Result *JobResult
}

// AppendWireBody encodes the record body (kind tag, then the kind's
// fields in declaration order).
func (rec *walRecord) AppendWireBody(w *harness.WireWriter) {
	w.PutUvarint(uint64(rec.Kind))
	switch rec.Kind {
	case walKindBegin:
		w.PutUvarint(uint64(rec.SpecCRC))
	case walKindGrant:
		w.PutUvarint(uint64(rec.JobID))
		w.PutVarint(rec.LeaseID)
		w.PutString(rec.Worker)
		w.PutVarint(rec.Expires)
	case walKindExtend:
		w.PutUvarint(uint64(rec.JobID))
		w.PutVarint(rec.LeaseID)
		w.PutVarint(rec.Expires)
	case walKindComplete:
		w.PutVarint(rec.LeaseID)
		var scratch []string
		appendJobResult(w, rec.Result, &scratch)
	case walKindRequeue, walKindDeadLetter:
		w.PutUvarint(uint64(rec.JobID))
		w.PutUvarint(uint64(rec.Attempts))
		w.PutString(rec.Err)
	case walKindCancel:
	}
}

// DecodeWireBody reads a record body written by AppendWireBody.
func (rec *walRecord) DecodeWireBody(r *harness.WireReader) error {
	kind, err := r.Uvarint()
	if err != nil {
		return err
	}
	rec.Kind = int(kind)
	switch rec.Kind {
	case walKindBegin:
		crc, err := r.Uvarint()
		if err != nil {
			return err
		}
		rec.SpecCRC = uint32(crc)
	case walKindGrant:
		jobID, err := r.Uvarint()
		if err != nil {
			return err
		}
		rec.JobID = int(jobID)
		if rec.LeaseID, err = r.Varint(); err != nil {
			return err
		}
		if rec.Worker, err = r.String(); err != nil {
			return err
		}
		if rec.Expires, err = r.Varint(); err != nil {
			return err
		}
	case walKindExtend:
		jobID, err := r.Uvarint()
		if err != nil {
			return err
		}
		rec.JobID = int(jobID)
		if rec.LeaseID, err = r.Varint(); err != nil {
			return err
		}
		if rec.Expires, err = r.Varint(); err != nil {
			return err
		}
	case walKindComplete:
		if rec.LeaseID, err = r.Varint(); err != nil {
			return err
		}
		if rec.Result, err = decodeJobResult(r); err != nil {
			return err
		}
		rec.JobID = rec.Result.JobID
	case walKindRequeue, walKindDeadLetter:
		// Uvarint, not Int: r.Int bounds its value by the body length
		// (it is for in-band lengths), and these small records routinely
		// carry job IDs larger than their own byte count.
		jobID, err := r.Uvarint()
		if err != nil {
			return err
		}
		rec.JobID = int(jobID)
		attempts, err := r.Uvarint()
		if err != nil {
			return err
		}
		rec.Attempts = int(attempts)
		if rec.Err, err = r.String(); err != nil {
			return err
		}
	case walKindCancel:
	default:
		return fmt.Errorf("campaign: unknown WAL record kind %d", rec.Kind)
	}
	return nil
}

// specWALCRC fingerprints the campaign identity for segment headers:
// the IEEE CRC-32 of the normalized spec's JSON, the same identity the
// checkpoint's spec comparison enforces (resume-tunable fields
// stripped).
func specWALCRC(spec Spec) uint32 {
	data, err := json.Marshal(normalizeSpec(spec))
	if err != nil {
		return 0
	}
	return crc32.ChecksumIEEE(data)
}

// wal is the append side of the log. It is not safe for concurrent use;
// the Dispatcher serializes every call under its mutex, exactly as it
// does the leaseQueue the log shadows.
type wal struct {
	fsys      WALFS
	path      string
	syncEvery int
	specCRC   uint32
	metrics   *Metrics

	file     WALFile
	encBuf   []byte
	unsynced int
	// degraded stops appends after a write or fsync error until the next
	// successful segment install; disarmed stops them permanently (the
	// chaos suite's kill switch — a simulated kill -9 stops persisting
	// while the in-memory dispatcher keeps acknowledging).
	degraded bool
	disarmed bool
}

// newWAL builds the appender; no I/O happens until a segment is
// installed or opened.
func newWAL(fsys WALFS, path string, syncEvery int, specCRC uint32, metrics *Metrics) *wal {
	if syncEvery <= 0 {
		syncEvery = 1
	}
	return &wal{fsys: fsys, path: path, syncEvery: syncEvery, specCRC: specCRC, metrics: metrics}
}

// append encodes rec as one PWB1 frame and writes it; the exchange's
// commit makes it durable. Errors degrade the log instead of
// propagating: a record that cannot be made durable must not take the
// campaign down, it only widens the recovery window back to the last
// checkpoint.
func (w *wal) append(rec *walRecord) {
	if w == nil || w.disarmed || w.degraded || w.file == nil {
		return
	}
	w.encBuf = harness.EncodeWireBinary(w.encBuf[:0], rec)
	if _, err := w.file.Write(w.encBuf); err != nil {
		w.degraded = true
		w.metrics.WALAppendErrors.Add(1)
		return
	}
	w.metrics.WALAppends.Add(1)
	w.unsynced++
}

// commit ends one dispatcher exchange: it fsyncs when the group-commit
// cadence is due. Callers defer it under the dispatcher lock, so the
// reply is built only after its records are as durable as the cadence
// promises.
func (w *wal) commit() {
	if w != nil && w.unsynced >= w.syncEvery {
		w.syncNow()
	}
}

// syncNow flushes appended records to stable storage ahead of cadence
// (the finish path calls it so the closing records are durable).
func (w *wal) syncNow() {
	if w == nil || w.disarmed || w.degraded || w.file == nil || w.unsynced == 0 {
		return
	}
	start := time.Now()
	err := w.file.Sync()
	w.metrics.WALFsyncNs.Add(time.Since(start).Nanoseconds())
	w.metrics.WALFsyncs.Add(1)
	if err != nil {
		w.degraded = true
		w.metrics.WALAppendErrors.Add(1)
		return
	}
	w.unsynced = 0
}

// disarm permanently stops all appends and syncs (test kill switch).
func (w *wal) disarm() {
	if w != nil {
		w.disarmed = true
	}
}

// rotate installs a fresh segment holding only the begin record — the
// log truncation step of compaction. Callers rotate only after a
// successful checkpoint save; a failed rotation keeps the old segment,
// whose stale records replay harmlessly over the newer snapshot.
func (w *wal) rotate() error {
	return w.installSegment(harness.EncodeWireBinary(nil, &walRecord{Kind: walKindBegin, SpecCRC: w.specCRC}))
}

// installSegment atomically replaces the on-disk log with content
// (already-framed records) using the checkpoint writer's discipline —
// temp file, fsync, rename, directory sync — then reopens the append
// handle. Success clears degraded mode: the tail is clean again.
func (w *wal) installSegment(content []byte) error {
	if w.disarmed {
		return nil
	}
	dir := filepath.Dir(w.path)
	tmp, err := w.fsys.CreateTemp(dir, filepath.Base(w.path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("campaign: writing WAL segment: %w", err)
	}
	defer w.fsys.Remove(tmp.Name())
	if _, err := tmp.Write(content); err != nil {
		tmp.Close()
		return fmt.Errorf("campaign: writing WAL segment: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("campaign: syncing WAL segment: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("campaign: writing WAL segment: %w", err)
	}
	if err := w.fsys.Rename(tmp.Name(), w.path); err != nil {
		return fmt.Errorf("campaign: committing WAL segment: %w", err)
	}
	_ = w.fsys.SyncDir(dir)
	if w.file != nil {
		_ = w.file.Close()
		w.file = nil
	}
	f, err := w.fsys.OpenAppend(w.path)
	if err != nil {
		w.degraded = true
		return fmt.Errorf("campaign: reopening WAL: %w", err)
	}
	w.file = f
	w.degraded = false
	w.unsynced = 0
	return nil
}

// openExisting attaches the appender to the log already on disk without
// rewriting it — the startup path when the replayed segment's tail is
// clean and the history should simply continue.
func (w *wal) openExisting() error {
	if w.disarmed {
		return nil
	}
	f, err := w.fsys.OpenAppend(w.path)
	if err != nil {
		w.degraded = true
		return fmt.Errorf("campaign: opening WAL: %w", err)
	}
	w.file = f
	w.degraded = false
	return nil
}

// close releases the append handle (final syncs have already happened).
func (w *wal) close() {
	if w != nil && w.file != nil {
		_ = w.file.Close()
		w.file = nil
	}
}

// walReplay is what a startup scan of the log yields: the decodable
// records in append order, the byte prefix they occupy (the tail beyond
// it is torn), and whether a torn tail was dropped.
type walReplay struct {
	recs []walRecord
	// prefix is the valid byte range; installing it as a fresh segment
	// clears a torn tail without losing history.
	prefix []byte
	// truncated counts torn tail records dropped by the scan (0 or 1 —
	// the scan cannot see past the first damage).
	truncated int
	// existed reports whether the log file was present at all.
	existed bool
}

// replayWAL scans the log frame by frame, stopping at the first framing
// or CRC damage — by construction that is the torn tail of a crashed
// append, and everything before it is intact. A log headed by a begin
// record for a different spec is an error (the operator pointed the
// dispatcher at the wrong state directory); a missing file is a fresh
// campaign.
func replayWAL(fsys WALFS, path string, specCRC uint32) (walReplay, error) {
	var rep walReplay
	data, err := fsys.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return rep, nil
		}
		return rep, fmt.Errorf("campaign: reading WAL: %w", err)
	}
	rep.existed = true
	pos := 0
	for pos < len(data) {
		n, ok := harness.WireFrameLen(data[pos:])
		if !ok {
			rep.truncated = 1
			break
		}
		var rec walRecord
		if err := harness.DecodeWireBinary(data[pos:pos+n], &rec, 0); err != nil {
			rep.truncated = 1
			break
		}
		rep.recs = append(rep.recs, rec)
		pos += n
	}
	rep.prefix = data[:pos]
	if len(rep.recs) > 0 {
		if rep.recs[0].Kind != walKindBegin {
			return rep, fmt.Errorf("campaign: WAL %s does not start with a begin record", path)
		}
		if rep.recs[0].SpecCRC != specCRC {
			return rep, fmt.Errorf("campaign: WAL %s was written by a different spec (CRC %08x, want %08x)",
				path, rep.recs[0].SpecCRC, specCRC)
		}
	}
	return rep, nil
}
