package campaign

// Dispatch protocol (v3): the wire types spoken between perple serve's
// dispatch endpoints and perple worker. A worker makes two kinds of
// call. It fetches the corpus once, as JSON; every later call is an
// upload to /complete, in the PWB1 binary codec (harness wirebin;
// DESIGN.md §14), labelled harness.WireContentTypeBinary, and answered
// in JSON. An upload in any other Content-Type, or carrying any version
// but ProtocolVersion, is refused with a 4xx (the version is the body's
// first field, so a foreign upload is refused before the rest of it is
// decoded).
//
//	GET  /campaigns/{id}/corpus     → CorpusResponse   (spec + test sources)
//	POST /campaigns/{id}/complete   CompleteRequest (PWB1) → CompleteResponse
//	                                (Lease > 0: Next carries the next grants)
//
// One upload does every job the worker needs from the server: it
// reports finished shards, hands back unstarted grants, extends held
// leases (Heartbeat) and asks for the next grants (Lease), all in one
// exchange and one WAL commit. Two shapes carry a single job:
//
//   - a lease-only upload, carrying nothing but Lease, takes a worker's
//     first batch and makes its idle polls: an empty, not-Done reply
//     carries a poll hint (Next.WaitSec);
//   - a heartbeat-only upload, carrying nothing but Heartbeat, extends
//     leases that fall due while the worker has nothing to report; it
//     is best-effort, so a failed one does not stop the worker.
//
// A batch's upload asks for a further batch, and the worker runs its
// next, already leased batch while that exchange is in flight.
//
// The protocol is at-least-once by construction: a worker that crashes
// mid-lease simply stops heartbeating and its jobs re-lease after the
// TTL; a worker that uploads twice (retry after a lost response) is
// deduplicated by the server's completion fence, and its retry — or a
// re-sent lease-only upload — is answered with the grants the lost
// response carried. Workers never need server-side identity beyond a
// self-chosen name used for lease accounting.

// ProtocolVersion guards wire compatibility; both sides refuse to talk
// across a mismatch.
const ProtocolVersion = 3

// CorpusTest ships one litmus test to workers as parseable source, so a
// worker needs no filesystem access to the campaign's test directory.
type CorpusTest struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

// CorpusResponse hands a worker everything it needs to execute jobs:
// the validated spec (for result-affecting knobs like exh_cap) and the
// resolved corpus.
type CorpusResponse struct {
	Version int          `json:"version"`
	Spec    Spec         `json:"spec"`
	Tests   []CorpusTest `json:"tests"`
}

// LeaseRequest asks Dispatcher.Lease for up to Max jobs. No endpoint
// takes it: workers lease through CompleteRequest.Lease.
type LeaseRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max"`
}

// LeaseGrant is one leased job plus the nonce the worker must echo in
// heartbeats and completions.
type LeaseGrant struct {
	Job     Job   `json:"job"`
	LeaseID int64 `json:"lease_id"`
}

// LeaseResponse returns the granted jobs. Done means the campaign has
// finished (or was cancelled) and the worker should exit; an empty grant
// list with WaitSec set means every remaining job is leased elsewhere —
// poll again after the hint (one may requeue).
type LeaseResponse struct {
	Version int          `json:"version"`
	Grants  []LeaseGrant `json:"grants,omitempty"`
	TTLSec  float64      `json:"ttl_sec"`
	Done    bool         `json:"done,omitempty"`
	WaitSec float64      `json:"wait_sec,omitempty"`
}

// LeaseRef names one held lease.
type LeaseRef struct {
	JobID   int   `json:"job_id"`
	LeaseID int64 `json:"lease_id"`
}

// WorkerResult is one completed shard: the result plus the lease nonce
// it was executed under.
type WorkerResult struct {
	LeaseID int64      `json:"lease_id"`
	Result  *JobResult `json:"result"`
}

// WorkerFailure reports a job whose execution failed on the worker; the
// server charges it against the job's retry budget and requeues it.
type WorkerFailure struct {
	LeaseID int64  `json:"lease_id"`
	JobID   int    `json:"job_id"`
	Err     string `json:"error"`
}

// CompleteRequest is the worker's one call after the corpus fetch:
// completed results, execution failures, leases handed back un-run
// (graceful drain), heartbeats for held leases that are due an
// extension, and Lease, asking for the next grants in the same
// exchange. Any of them may be empty. The body travels in the PWB1
// codec.
type CompleteRequest struct {
	Version  int             `json:"version"`
	Worker   string          `json:"worker"`
	Results  []WorkerResult  `json:"results,omitempty"`
	Failures []WorkerFailure `json:"failures,omitempty"`
	Released []LeaseRef      `json:"released,omitempty"`
	// Heartbeat lists leases the worker still holds and wants extended
	// with this upload. A lease the server no longer recognizes (expired
	// and re-granted) is not extended, which is how a slow worker learns
	// it lost work.
	Heartbeat []LeaseRef `json:"heartbeat,omitempty"`
	// Lease, when positive, grants up to this many new jobs in the same
	// exchange, after everything above is applied: the response's Next
	// is then exactly what Dispatcher.Lease would return — except for a
	// re-delivery, whose Next first repeats the grants the first delivery
	// was answered with that the worker still holds. A re-delivery is an
	// upload whose every result is a same-lease duplicate, or a
	// lease-only upload, which a worker sends only when it holds no
	// grant.
	Lease int `json:"lease,omitempty"`
}

// CompleteResponse accounts for every uploaded item: merged into the
// totals, acknowledged as a duplicate re-delivery of an already-merged
// upload (same job, same lease nonce — a retry after a lost response),
// dropped by the completion fence (a competing holder's copy), rejected
// as invalid (result fields contradict the job's identity), requeued,
// or permanently failed. Done tells the worker the campaign has
// finished. Next answers the request's Lease.
type CompleteResponse struct {
	Merged    int  `json:"merged"`
	Duplicate int  `json:"duplicate,omitempty"`
	Fenced    int  `json:"fenced"`
	Invalid   int  `json:"invalid"`
	Requeued  int  `json:"requeued"`
	Failed    int  `json:"failed"`
	Done      bool `json:"done,omitempty"`
	// Extended counts the request's heartbeats honored.
	Extended int `json:"extended,omitempty"`
	// Next is the lease the request asked for (nil when Lease was 0).
	Next *LeaseResponse `json:"next,omitempty"`
}

// leaseOnly reports whether cr carries nothing but Lease: a worker's
// first lease or an idle poll.
func (cr *CompleteRequest) leaseOnly() bool {
	return cr.Lease > 0 && len(cr.Results)+len(cr.Failures)+len(cr.Released)+len(cr.Heartbeat) == 0
}

// heartbeatOnly reports whether cr carries nothing but Heartbeat.
func (cr *CompleteRequest) heartbeatOnly() bool {
	return cr.Lease == 0 && len(cr.Heartbeat) > 0 && len(cr.Results)+len(cr.Failures)+len(cr.Released) == 0
}
