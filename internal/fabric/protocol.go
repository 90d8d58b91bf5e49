package fabric

import (
	"bytes"
	"encoding/json"

	"dvmc"
	"dvmc/internal/fuzz"
)

// The HTTP+JSON wire protocol. All campaign-affecting state lives in
// these types; the transport is plain POST-a-JSON-body, answer-a-JSON-
// body on the paths below, so the protocol is testable without sockets.
const (
	PathRegister = "/v1/register"
	PathLease    = "/v1/lease"
	PathRenew    = "/v1/renew"
	PathComplete = "/v1/complete"
	PathStatus   = "/v1/status"
	PathMetrics  = "/metrics.json"
)

// Every body read off the wire is bounded, so one POST (or one reply)
// cannot make its reader allocate without limit.
const (
	// MaxControlBody bounds every body but a completion: register, lease
	// and renew requests, their replies, status.
	MaxControlBody = 64 << 10
	// maxCaseBody is what each case may add to a completion, the one
	// body that carries per-case payload. The largest completion the
	// fabric's tests produce is 8,021 bytes for a 5-case shard, and the
	// largest share a case takes is 3,476 bytes, a 2-case shard with its
	// telemetry snapshot; the bound is 4.7x that share. It also holds
	// the largest case the deriver makes (11,907 bytes over 5,000
	// indices), which a failing record carries whole when minimization
	// is off, while a shard's one snapshot fits in the MaxControlBody
	// every completion starts from: a 1-case shard's whole completion,
	// snapshot included, is at most 7,762 bytes over 400 such shards.
	maxCaseBody = 16 << 10
)

// caseBodyLimit bounds a completion of a shard of n cases.
func caseBodyLimit(n int) int64 { return MaxControlBody + int64(n)*maxCaseBody }

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	Worker string `json:"worker"`
}

// RegisterResponse hands the worker everything it needs to execute any
// shard: the full job spec and the lease TTL (in seconds) it must
// renew within.
type RegisterResponse struct {
	Spec       JobSpec `json:"spec"`
	TTLSeconds uint64  `json:"ttl_seconds"`
}

// LeaseRequest asks for a shard assignment.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse carries an assignment, or tells the worker the job is
// finished (Done) or temporarily out of assignable shards (neither —
// poll again after WaitSeconds). A shard is all a worker needs: its
// cases derive from the spec and their indices.
type LeaseResponse struct {
	Shard       *Shard `json:"shard,omitempty"`
	Done        bool   `json:"done,omitempty"`
	WaitSeconds uint64 `json:"wait_seconds,omitempty"`
}

// RenewRequest extends a lease mid-shard (the worker's heartbeat).
type RenewRequest struct {
	Worker string `json:"worker"`
	Shard  int    `json:"shard"`
}

// RenewResponse: OK false tells the worker its lease was stolen; it
// should abandon the shard (completing anyway is harmless — the
// duplicate result is identical and dropped).
type RenewResponse struct {
	OK bool `json:"ok"`
}

// CompleteRequest delivers a shard's results.
type CompleteRequest struct {
	Worker string      `json:"worker"`
	Result ShardResult `json:"result"`
}

// CompleteResponse acknowledges a completion. Accepted is false for
// duplicates (the shard was already completed by another worker); Done
// reports whether the whole job just finished.
type CompleteResponse struct {
	Accepted bool `json:"accepted"`
	Done     bool `json:"done"`
}

// WorkerStatus is one worker's row in the status report.
type WorkerStatus struct {
	Name string `json:"name"`
	// Shards is the number of shard results this worker delivered.
	Shards int `json:"shards"`
	// LastSeenSeconds is seconds (coordinator clock) since the worker's
	// last request of any kind.
	LastSeenSeconds uint64 `json:"last_seen_seconds"`
	// LastRenewSeconds is seconds since the worker last proved shard
	// progress (a lease renewal or a completion; admission counts as the
	// first heartbeat). A worker whose LastSeenSeconds stays fresh while
	// LastRenewSeconds grows is polling but stuck mid-shard.
	LastRenewSeconds uint64 `json:"last_renew_seconds"`
	// ActiveShard is the shard the worker currently holds a lease on,
	// -1 when idle. A stolen lease leaves the victim's row pointing at
	// the stale shard until its next request — itself a staleness tell.
	ActiveShard int `json:"active_shard"`
	// ShardsPerSec is the worker's delivery rate since admission.
	ShardsPerSec float64 `json:"shards_per_sec"`
}

// StatusResponse summarises coordinator progress for dvmc-farm status.
type StatusResponse struct {
	Kind    JobKind        `json:"kind"`
	Total   int            `json:"total_shards"`
	Pending int            `json:"pending"`
	Active  int            `json:"active"`
	Done    int            `json:"done"`
	Cases   int            `json:"cases"`
	Workers []WorkerStatus `json:"workers,omitempty"`
	// Finished: every shard is done; the final artifacts are available.
	Finished bool `json:"finished"`
}

// ShardResult is one executed shard's complete output — a pure function
// of (spec, Shard.From, Shard.To), which is what makes results from
// different workers, retries, and steals interchangeable.
type ShardResult struct {
	Shard Shard `json:"shard"`
	// Records are the shard's fuzz records in index order (JobFuzz), as
	// verdicts: exactly one per case in [Shard.From, Shard.To).
	Records Verdicts `json:"records,omitempty"`
	// Injections are the shard's injection results in index order
	// (JobExperiment): exactly one per case in [Shard.From, Shard.To).
	Injections []dvmc.InjectionResult `json:"injections,omitempty"`
	// Snapshot is the shard's canonical merged telemetry snapshot
	// (JobFuzz with Metrics on), in telemetry JSON encoding.
	Snapshot json.RawMessage `json:"snapshot,omitempty"`
}

// Verdicts are a fuzz shard's records as they cross the wire and enter
// the journal: each record's index, result and minimized reproducer,
// never its case. The coordinator re-derives every
// case with fuzz.CaseAt, so a worker reports the outcome of the indices
// it was leased and cannot put a case into the merged output. In memory
// they stay fuzz.Records, so fuzz.RunRange's table is a result as it is;
// decoded, a record's Case and CorpusFile are empty, and a record
// carrying any other field, a "case" among them, does not decode.
type Verdicts []fuzz.Record

// verdict is one record's wire form.
type verdict struct {
	Index  int            `json:"index"`
	Result fuzz.RunResult `json:"result"`
	// Minimized travels because the coordinator cannot rebuild it: it is
	// the outcome of a ddmin search, present only on failures.
	Minimized *fuzz.Case `json:"minimized,omitempty"`
}

// MarshalJSON encodes the records without their cases.
func (v Verdicts) MarshalJSON() ([]byte, error) {
	wire := make([]verdict, len(v))
	for i, r := range v {
		wire[i] = verdict{Index: r.Index, Result: r.Result, Minimized: r.Minimized}
	}
	return json.Marshal(wire)
}

// UnmarshalJSON decodes verdicts strictly: a caller's
// DisallowUnknownFields does not reach a custom decoder, so it is set
// here.
func (v *Verdicts) UnmarshalJSON(data []byte) error {
	var wire []verdict
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		return err
	}
	*v = make(Verdicts, len(wire))
	for i, w := range wire {
		(*v)[i] = fuzz.Record{Index: w.Index, Result: w.Result, Minimized: w.Minimized}
	}
	return nil
}
