package campaign

import (
	"fmt"

	"perple/internal/harness"
)

// PWB1 body layouts for the dispatch protocol's upload path (frame and
// primitives: internal/harness/wirebin.go; protocol rules: DESIGN.md
// §14). The encoding leans on the batch shape: one upload carries many
// shards of few distinct tests/tools/presets, so those strings intern
// down to one-byte references after their first occurrence, and each
// shard's histogram front-codes its sorted outcome keys.
//
// Field order is the struct order below. The body's first field is the
// protocol version, and the decoder refuses any but ProtocolVersion
// before reading further, so a layout change bumps ProtocolVersion and
// an old peer's upload is refused, never silently re-read. v2 appended
// Lease.

// AppendWireBody encodes the upload batch.
func (cr *CompleteRequest) AppendWireBody(w *harness.WireWriter) {
	w.PutUvarint(uint64(cr.Version))
	w.PutString(cr.Worker)
	w.PutUvarint(uint64(len(cr.Results)))
	var scratch []string
	for _, wr := range cr.Results {
		w.PutVarint(wr.LeaseID)
		appendJobResult(w, wr.Result, &scratch)
	}
	w.PutUvarint(uint64(len(cr.Failures)))
	for _, wf := range cr.Failures {
		w.PutVarint(wf.LeaseID)
		w.PutUvarint(uint64(wf.JobID))
		w.PutString(wf.Err)
	}
	appendLeaseRefs(w, cr.Released)
	appendLeaseRefs(w, cr.Heartbeat)
	w.PutUvarint(uint64(cr.Lease))
}

// DecodeWireBody reads the batch written by AppendWireBody. A body of
// any version but ProtocolVersion fails as soon as its version is read:
// the rest is another version's layout.
func (cr *CompleteRequest) DecodeWireBody(r *harness.WireReader) error {
	v, err := r.Uvarint()
	if err != nil {
		return err
	}
	if v != ProtocolVersion {
		return fmt.Errorf("protocol version %d, want %d", v, ProtocolVersion)
	}
	cr.Version = int(v)
	if cr.Worker, err = r.String(); err != nil {
		return err
	}
	n, err := r.Int()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		var wr WorkerResult
		if wr.LeaseID, err = r.Varint(); err != nil {
			return err
		}
		if wr.Result, err = decodeJobResult(r); err != nil {
			return err
		}
		cr.Results = append(cr.Results, wr)
	}
	if n, err = r.Int(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		var wf WorkerFailure
		if wf.LeaseID, err = r.Varint(); err != nil {
			return err
		}
		jobID, err := r.Uvarint()
		if err != nil {
			return err
		}
		wf.JobID = int(jobID)
		if wf.Err, err = r.String(); err != nil {
			return err
		}
		cr.Failures = append(cr.Failures, wf)
	}
	if cr.Released, err = decodeLeaseRefs(r); err != nil {
		return err
	}
	if cr.Heartbeat, err = decodeLeaseRefs(r); err != nil {
		return err
	}
	lease, err := r.Uvarint()
	cr.Lease = int(lease)
	return err
}

func appendLeaseRefs(w *harness.WireWriter, refs []LeaseRef) {
	w.PutUvarint(uint64(len(refs)))
	for _, ref := range refs {
		w.PutUvarint(uint64(ref.JobID))
		w.PutVarint(ref.LeaseID)
	}
}

func decodeLeaseRefs(r *harness.WireReader) ([]LeaseRef, error) {
	n, err := r.Int()
	if err != nil || n == 0 {
		return nil, err
	}
	refs := make([]LeaseRef, n)
	for i := range refs {
		jobID, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		refs[i].JobID = int(jobID)
		if refs[i].LeaseID, err = r.Varint(); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// appendJobResult writes one shard result. TraceVerifyNs is not a wire
// field, exactly as its json:"-" tag keeps it out of the JSON codec:
// verification wall-time is accounted where the checking ran.
func appendJobResult(w *harness.WireWriter, jr *JobResult, scratch *[]string) {
	w.PutVarint(int64(jr.JobID))
	w.PutString(jr.Test)
	w.PutString(jr.Tool)
	w.PutString(jr.Preset)
	w.PutVarint(int64(jr.Shard))
	w.PutVarint(int64(jr.N))
	w.PutVarint(jr.Seed)
	w.PutVarint(jr.Target)
	w.PutVarint(jr.Ticks)
	w.PutVarint(jr.Frames)
	w.PutHistogram(jr.Histogram, scratch)
	w.PutString(jr.Note)
	w.PutVarint(int64(jr.Retries))
	w.PutVarint(jr.TracesVerified)
	w.PutVarint(jr.TraceViolations)
	w.PutStrings(jr.TraceReports)
}

func decodeJobResult(r *harness.WireReader) (*JobResult, error) {
	jr := &JobResult{}
	v, err := r.Varint()
	if err != nil {
		return nil, err
	}
	jr.JobID = int(v)
	if jr.Test, err = r.String(); err != nil {
		return nil, err
	}
	if jr.Tool, err = r.String(); err != nil {
		return nil, err
	}
	if jr.Preset, err = r.String(); err != nil {
		return nil, err
	}
	if v, err = r.Varint(); err != nil {
		return nil, err
	}
	jr.Shard = int(v)
	if v, err = r.Varint(); err != nil {
		return nil, err
	}
	jr.N = int(v)
	if jr.Seed, err = r.Varint(); err != nil {
		return nil, err
	}
	if jr.Target, err = r.Varint(); err != nil {
		return nil, err
	}
	if jr.Ticks, err = r.Varint(); err != nil {
		return nil, err
	}
	if jr.Frames, err = r.Varint(); err != nil {
		return nil, err
	}
	if jr.Histogram, err = r.Histogram(); err != nil {
		return nil, err
	}
	if jr.Note, err = r.String(); err != nil {
		return nil, err
	}
	if v, err = r.Varint(); err != nil {
		return nil, err
	}
	jr.Retries = int(v)
	if jr.TracesVerified, err = r.Varint(); err != nil {
		return nil, err
	}
	if jr.TraceViolations, err = r.Varint(); err != nil {
		return nil, err
	}
	if jr.TraceReports, err = r.Strings(); err != nil {
		return nil, err
	}
	return jr, nil
}
