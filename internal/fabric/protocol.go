package fabric

import (
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
	// MaxControlBody bounds bodies that carry no per-case payload:
	// register, lease and renew requests, every reply but a lease, status.
	MaxControlBody = 64 << 10
	// maxCaseBody is what each case may add to one that does: 10x the
	// largest share the fabric's tests produce, a 32,761-byte completion
	// of a 5-case shard, its telemetry snapshot included (6.6 KB a case).
	maxCaseBody = 64 << 10
)

// caseBodyLimit bounds a body carrying per-case payload for n cases: a
// completion (n = the job's largest shard) or a lease with its seed pool
// (n = the whole job: a pool is bred from every earlier case).
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
// poll again after WaitSeconds).
type LeaseResponse struct {
	Shard       *Shard `json:"shard,omitempty"`
	Done        bool   `json:"done,omitempty"`
	WaitSeconds uint64 `json:"wait_seconds,omitempty"`
	// Input is per-shard input state the worker cannot derive from the
	// spec alone: for a fuzz shard in generation g >= 1, the generation's
	// mutation seed pool (a JSON []*fuzz.Case), distilled coordinator-side
	// from the completed earlier generations.
	Input json.RawMessage `json:"input,omitempty"`
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
	// Generation is the generation of the active shard: 0 in the random
	// prefix (all of an experiment, or of a campaign that breeds nothing),
	// -1 when idle.
	Generation int `json:"generation"`
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
	// Records are the shard's fuzz records in index order (JobFuzz).
	Records []fuzz.Record `json:"records,omitempty"`
	// Rows are the shard's per-row injection slices (JobExperiment).
	Rows []RowPartial `json:"rows,omitempty"`
	// Snapshot is the shard's canonical merged telemetry snapshot
	// (JobFuzz with Metrics on), in telemetry JSON encoding.
	Snapshot json.RawMessage `json:"snapshot,omitempty"`
}

// RowPartial is a contiguous slice of one Section 6.1 row's injection
// results: global case indices map row-major onto (row, slot), and a
// shard that spans row boundaries splits into one RowPartial per row.
type RowPartial struct {
	Row int `json:"row"`
	// From is the first slot (injection number within the row) Results
	// covers.
	From    int                    `json:"from"`
	Results []dvmc.InjectionResult `json:"results"`
}

// Expand rebuilds the full-length slot array this partial occupies, for
// combination with dvmc.Merge.
func (p RowPartial) Expand(faults int) dvmc.CampaignResult {
	out := dvmc.CampaignResult{Results: make([]dvmc.InjectionResult, faults)}
	for i, r := range p.Results {
		if p.From+i < faults {
			out.Results[p.From+i] = r
		}
	}
	return out
}
