package campaign

// Dispatch protocol (v2): the wire types spoken between perple serve's
// dispatch endpoints and perple worker. Control bodies are JSON; the
// completion upload carries full per-shard histograms and travels in
// the PWB1 binary codec (harness wirebin; DESIGN.md §14), labelled
// harness.WireContentTypeBinary. An upload in any other Content-Type,
// or carrying any version but ProtocolVersion, is refused with a 4xx
// (the version is the body's first field, so a foreign upload is
// refused before the rest of it is decoded).
//
//	GET  /campaigns/{id}/corpus     → CorpusResponse   (spec + test sources)
//	POST /campaigns/{id}/lease      LeaseRequest → LeaseResponse
//	                                (first batch and idle polls only)
//	POST /campaigns/{id}/heartbeat  HeartbeatRequest → HeartbeatResponse
//	POST /campaigns/{id}/complete   CompleteRequest (PWB1) → CompleteResponse
//	                                (Lease > 0: Next carries the next grants)
//
// v2 makes the upload the steady-state lease call: a batch's upload
// asks for a further batch (CompleteRequest.Lease) and receives it in
// the same exchange (CompleteResponse.Next), so a shard costs one round
// trip and one WAL commit instead of two. The worker runs its next,
// already leased batch while that exchange is in flight.
//
// The protocol is at-least-once by construction: a worker that crashes
// mid-lease simply stops heartbeating and its jobs re-lease after the
// TTL; a worker that uploads twice (retry after a lost response) is
// deduplicated by the server's completion fence. Workers never need
// server-side identity beyond a self-chosen name used for lease
// accounting.

// ProtocolVersion guards wire compatibility; both sides refuse to talk
// across a mismatch.
const ProtocolVersion = 2

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

// LeaseRequest asks for up to Max jobs.
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

// HeartbeatRequest extends the caller's live leases.
type HeartbeatRequest struct {
	Worker string     `json:"worker"`
	Leases []LeaseRef `json:"leases"`
}

// HeartbeatResponse reports how many leases were extended; a lease the
// server no longer recognizes (expired and re-granted) is simply not
// counted, which is how a slow worker learns it lost work.
type HeartbeatResponse struct {
	Extended int     `json:"extended"`
	TTLSec   float64 `json:"ttl_sec"`
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

// CompleteRequest is the batched upload: completed results, execution
// failures, leases handed back un-run (graceful drain), and heartbeats
// for held leases that are due an extension, piggybacked so the upload
// doubles as the lease extension and saves the dedicated heartbeat
// round-trip. Lease asks for the next grants in the same exchange,
// saving the dedicated lease round-trip too. The body travels in the
// PWB1 codec.
type CompleteRequest struct {
	Version  int             `json:"version"`
	Worker   string          `json:"worker"`
	Results  []WorkerResult  `json:"results,omitempty"`
	Failures []WorkerFailure `json:"failures,omitempty"`
	Released []LeaseRef      `json:"released,omitempty"`
	// Heartbeat lists leases the worker still holds and wants extended
	// with this upload.
	Heartbeat []LeaseRef `json:"heartbeat,omitempty"`
	// Lease, when positive, grants up to this many new jobs in the same
	// exchange, after everything above is applied: the response's Next
	// is then exactly what a LeaseRequest{Max: Lease} would have returned.
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
	// Extended counts piggybacked heartbeats honored, mirroring
	// HeartbeatResponse.Extended.
	Extended int `json:"extended,omitempty"`
	// Next is the lease the request asked for (nil when Lease was 0).
	Next *LeaseResponse `json:"next,omitempty"`
}
