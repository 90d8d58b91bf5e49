package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"dvmc"
	"dvmc/internal/frame"
	"dvmc/internal/fuzz"
	"dvmc/internal/telemetry"
)

// CoordinatorOptions tune the lease protocol and durability.
type CoordinatorOptions struct {
	// CheckpointPath, when nonempty, journals the spec and every
	// accepted shard result to an append-only file (see checkpoint.go).
	// NewCoordinator refuses an existing file — restart with
	// ResumeCoordinator instead, which is the crash-recovery path.
	CheckpointPath string
	// TTLSeconds is the lease lifetime; a worker that neither renews nor
	// completes within it loses the shard to work-stealing. 0 picks 60.
	TTLSeconds uint64
	// Clock supplies the logical time (in seconds) the lease table runs
	// on. Nil picks wall seconds since coordinator start; tests inject a
	// counter to step leases deterministically.
	Clock func() uint64
}

type workerInfo struct {
	shards      int
	firstSeen   uint64
	lastSeen    uint64
	lastRenew   uint64 // last renewal/completion — the mid-shard heartbeat
	activeShard int    // currently leased shard, -1 when idle
}

// Coordinator owns a job's lease table and accumulates shard results.
// It is the only component that writes campaign artifacts, and it does
// so exactly once, after the last shard completes, through the same
// finalize code the serial drivers use — which is how a farm of any
// shape reproduces a serial run's bytes.
type Coordinator struct {
	mu     sync.Mutex
	spec   JobSpec // immutable after construction
	shards []Shard // immutable after construction
	// mu guards leases, results, workers and ckpt.
	leases        *LeaseTable
	results       map[int]*ShardResult
	workers       map[string]*workerInfo
	ckpt          *os.File
	clock         func() uint64
	ttl           uint64
	completeLimit int64 // body bound for PathComplete, from the largest shard
	doneCh        chan struct{}
}

// NewCoordinator starts a fresh job.
func NewCoordinator(spec JobSpec, opts CoordinatorOptions) (*Coordinator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	shards := spec.Shards()
	if len(shards) == 0 {
		return nil, fmt.Errorf("fabric: job has no cases to shard")
	}
	c := newCoordinator(spec, shards, opts)
	if opts.CheckpointPath != "" {
		f, err := os.OpenFile(opts.CheckpointPath, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return nil, fmt.Errorf("fabric: checkpoint %s exists or is unwritable (resume instead?): %w", opts.CheckpointPath, err)
		}
		c.ckpt = f
		if err := c.journal(CheckpointEntry{Spec: &spec}); err != nil {
			f.Close()
			return nil, err
		}
	}
	return c, nil
}

// ResumeCoordinator restarts a job from its checkpoint: the spec and
// every accepted shard result are replayed from the journal, completed
// shards are never re-run, and new results append to the same file. A
// torn trailing line (coordinator crashed mid-append) is truncated
// away; any other corruption — a record that does not decode, a spec
// that does not validate, a result Complete would have refused —
// refuses to resume with a *frame.PosError.
func ResumeCoordinator(path string, opts CoordinatorOptions) (*Coordinator, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	entries, droppedTail, err := ReadCheckpoint(data)
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 || entries[0].Spec == nil {
		return nil, fmt.Errorf("fabric: checkpoint %s: %w", path, &frame.PosError{Err: errors.New("does not start with a job spec")})
	}
	spec := *entries[0].Spec
	if err := spec.Validate(); err != nil {
		// A spec no coordinator would have journaled: the file is damaged
		// (or hostile), and says so like any other undecodable record.
		return nil, fmt.Errorf("fabric: checkpoint %s: %w", path, &frame.PosError{Err: err})
	}
	if droppedTail > 0 {
		if err := os.Truncate(path, int64(len(data)-droppedTail)); err != nil {
			return nil, fmt.Errorf("fabric: dropping torn checkpoint tail: %w", err)
		}
	}
	c := newCoordinator(spec, spec.Shards(), opts)
	// off is the byte offset of record k's line: the entries decoded, so
	// each is one newline-terminated line.
	off := 0
	for k, e := range entries {
		var err error
		switch {
		case k == 0:
		case e.Result == nil:
			err = errors.New("a second spec entry")
		default:
			err = c.checkResult(e.Result)
		}
		if err != nil {
			return nil, fmt.Errorf("fabric: checkpoint %s: %w", path, &frame.PosError{Record: uint64(k), Offset: int64(off), Err: err})
		}
		off += bytes.IndexByte(data[off:], '\n') + 1
		if k > 0 && c.leases.Complete(e.Result.Shard.ID) {
			c.results[e.Result.Shard.ID] = e.Result
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	c.ckpt = f
	if c.leases.Done() {
		close(c.doneCh)
	}
	return c, nil
}

func newCoordinator(spec JobSpec, shards []Shard, opts CoordinatorOptions) *Coordinator {
	ttl := opts.TTLSeconds
	if ttl == 0 {
		ttl = 60
	}
	clock := opts.Clock
	if clock == nil {
		start := time.Now()
		clock = func() uint64 { return uint64(time.Since(start) / time.Second) }
	}
	largest := 0
	for _, sh := range shards {
		largest = max(largest, sh.To-sh.From)
	}
	return &Coordinator{
		spec:          spec,
		shards:        append([]Shard(nil), shards...),
		leases:        NewLeaseTable(shards, ttl),
		results:       make(map[int]*ShardResult),
		workers:       make(map[string]*workerInfo),
		clock:         clock,
		ttl:           ttl,
		completeLimit: caseBodyLimit(largest),
		doneCh:        make(chan struct{}),
	}
}

// journal appends one entry and flushes it to disk before the state
// change is acknowledged — an accepted result is never lost to a crash.
//
// The caller holds c.mu.
func (c *Coordinator) journal(e CheckpointEntry) error {
	if c.ckpt == nil {
		return nil
	}
	if err := AppendEntry(c.ckpt, e); err != nil {
		return err
	}
	return c.ckpt.Sync()
}

// Close releases the checkpoint file handle.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ckpt == nil {
		return nil
	}
	err := c.ckpt.Close()
	c.ckpt = nil
	return err
}

// Done is closed when every shard has completed.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Spec returns the job being coordinated (on resume, the journaled one).
func (c *Coordinator) Spec() JobSpec { return c.spec }

// touch records a heartbeat from worker, admitting it on first sight.
// The caller holds c.mu.
func (c *Coordinator) touch(worker string) *workerInfo {
	if worker == "" {
		return nil
	}
	now := c.clock()
	info := c.workers[worker]
	if info == nil {
		// Admission counts as the first heartbeat so renew age is always
		// well-defined.
		info = &workerInfo{firstSeen: now, lastRenew: now, activeShard: -1}
		c.workers[worker] = info
	}
	info.lastSeen = now
	return info
}

// Register admits a worker and hands it the job spec.
func (c *Coordinator) Register(req RegisterRequest) RegisterResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touch(req.Worker)
	return RegisterResponse{Spec: c.spec, TTLSeconds: c.ttl}
}

// Lease assigns a shard (or reports the job done / temporarily dry).
func (c *Coordinator) Lease(req LeaseRequest) LeaseResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touch(req.Worker)
	if c.leases.Done() {
		return LeaseResponse{Done: true}
	}
	if sh, ok := c.leases.Acquire(req.Worker, c.clock()); ok {
		if info := c.workers[req.Worker]; info != nil {
			info.activeShard = sh.ID
		}
		return LeaseResponse{Shard: &sh}
	}
	// Everything is either done or actively leased; poll back soon —
	// both to steal expired leases promptly and to observe Done before
	// the coordinator's post-job linger expires.
	wait := c.ttl / 4
	if wait == 0 || wait > 2 {
		wait = 2
	}
	return LeaseResponse{WaitSeconds: wait}
}

// Renew extends a worker's lease.
func (c *Coordinator) Renew(req RenewRequest) RenewResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	info := c.touch(req.Worker)
	ok := c.leases.Renew(req.Worker, req.Shard, c.clock())
	if info != nil && ok {
		info.lastRenew = c.clock()
	}
	return RenewResponse{OK: ok}
}

// ErrBadResult marks a completion that cannot be a result of this job.
var ErrBadResult = errors.New("fabric: result does not belong to this job")

// checkResult refuses a result that finalize could not place: accepted,
// it would be journaled and sink the whole job after its last shard. A
// result carries exactly one outcome per case of its shard, in index
// order, of its job's kind; an experiment outcome must report the
// injection the coordinator derives for its index, so a worker reports
// outcomes and cannot put a case of its own into the table.
func (c *Coordinator) checkResult(r *ShardResult) error {
	id := r.Shard.ID
	if id < 0 || id >= len(c.shards) || r.Shard != c.shards[id] {
		return fmt.Errorf("%w: shard %+v is not in its partition", ErrBadResult, r.Shard)
	}
	// Outcomes of the job's kind (records for a fuzz job, injection
	// results for an experiment) and of the other kind.
	ours, theirs := len(r.Records), len(r.Injections)
	if c.spec.Kind == JobExperiment {
		ours, theirs = theirs, ours
	}
	if ours != r.Shard.To-r.Shard.From || theirs != 0 {
		return fmt.Errorf("%w: shard %d covers cases [%d, %d) of a %s job but carries %d records and %d injection results",
			ErrBadResult, id, r.Shard.From, r.Shard.To, c.spec.Kind, len(r.Records), len(r.Injections))
	}
	for k, rec := range r.Records {
		if rec.Index != r.Shard.From+k {
			return fmt.Errorf("%w: shard %d carries record %d at case %d", ErrBadResult, id, rec.Index, r.Shard.From+k)
		}
	}
	if len(r.Injections) > 0 {
		injs := c.spec.Experiment.figure().Injections()
		for k, res := range r.Injections {
			if i := r.Shard.From + k; res.Injection != injs[i] {
				return fmt.Errorf("%w: shard %d reports injection %+v at case %d, which is %+v", ErrBadResult, id, res.Injection, i, injs[i])
			}
		}
	}
	return nil
}

// Complete accepts a shard result. The first completion wins; a
// duplicate (a worker finishing a shard that was stolen and completed
// by someone else) is acknowledged but dropped — both copies carry
// identical bytes, so nothing is lost. A result that is not this job's
// is an ErrBadResult and changes nothing.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkResult(&req.Result); err != nil {
		return CompleteResponse{}, err
	}
	info := c.touch(req.Worker)
	if info != nil {
		info.lastRenew = c.clock()
		if info.activeShard == req.Result.Shard.ID {
			info.activeShard = -1
		}
	}
	id := req.Result.Shard.ID
	if !c.leases.Complete(id) {
		return CompleteResponse{Accepted: false, Done: c.leases.Done()}, nil
	}
	r := req.Result
	c.results[id] = &r
	if err := c.journal(CheckpointEntry{Result: &r}); err != nil {
		return CompleteResponse{}, err
	}
	if info != nil {
		info.shards++
	}
	done := c.leases.Done()
	if done {
		close(c.doneCh)
	}
	return CompleteResponse{Accepted: true, Done: done}, nil
}

// Status reports progress.
func (c *Coordinator) Status() StatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock()
	pending, active, done := c.leases.Counts(now)
	resp := StatusResponse{
		Kind:     c.spec.Kind,
		Total:    c.leases.Len(),
		Pending:  pending,
		Active:   active,
		Done:     done,
		Cases:    c.spec.TotalCases(),
		Finished: c.leases.Done(),
	}
	names := make([]string, 0, len(c.workers))
	//dvmc:orderinsensitive keys are collected and sorted before use
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		info := c.workers[name]
		elapsed := now - info.firstSeen
		if elapsed == 0 {
			elapsed = 1
		}
		resp.Workers = append(resp.Workers, WorkerStatus{
			Name:             name,
			Shards:           info.shards,
			LastSeenSeconds:  now - info.lastSeen,
			LastRenewSeconds: now - info.lastRenew,
			ActiveShard:      info.activeShard,
			ShardsPerSec:     float64(info.shards) / float64(elapsed),
		})
	}
	return resp
}

// MetricsSnapshot merges the telemetry snapshots of every shard
// accepted so far — the live farm-wide view /metrics.json serves, and
// (once finished) the job's final merged snapshot. Order-independence
// of the merge makes this canonical at any completion state.
func (c *Coordinator) MetricsSnapshot() (*telemetry.Snapshot, error) {
	c.mu.Lock()
	snaps, err := c.snapshots()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return telemetry.MergeSnapshots(snaps...)
}

// snapshots decodes the telemetry snapshots of the shards accepted so
// far, in shard order.
//
// The caller holds c.mu.
func (c *Coordinator) snapshots() ([]*telemetry.Snapshot, error) {
	var snaps []*telemetry.Snapshot
	for id := range c.shards {
		r := c.results[id]
		if r == nil || len(r.Snapshot) == 0 {
			continue
		}
		s, err := telemetry.DecodeSnapshot(bytes.NewReader(r.Snapshot))
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, s)
	}
	return snaps, nil
}

// Output is a finished job's merged artifacts — the same values the
// serial drivers produce, byte for byte.
type Output struct {
	// Fuzz jobs: the complete record table (index order), its summary,
	// and — with Metrics on — the merged telemetry snapshot.
	Records  []fuzz.Record
	Summary  fuzz.Summary
	Snapshot *telemetry.Snapshot
	// Experiment jobs: every injection result in index order, and the
	// Section 6.1 table rendered from them.
	Injections []dvmc.InjectionResult
	Table      dvmc.Table
}

// Finalize assembles the finished job's artifacts. For fuzz jobs it
// runs the same fuzz.Finalize pass as the local driver (corpus writes
// into the spec's CorpusDir, then the summary). Callable only after
// Done.
func (c *Coordinator) Finalize() (*Output, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.leases.Done() {
		return nil, fmt.Errorf("fabric: Finalize before all shards completed")
	}
	out := &Output{}
	switch c.spec.Kind {
	case JobFuzz:
		// This is the one place verdicts become records. Each accepted
		// result covers its shard exactly, so the shards' records in shard
		// order are the table, whatever order they were accepted in (live
		// or replayed from the journal); every case is re-derived by index.
		cfg := *c.spec.Fuzz
		out.Records = make([]fuzz.Record, 0, cfg.Runs)
		for id := range c.shards {
			for _, rec := range c.results[id].Records {
				rec.Case = fuzz.CaseAt(cfg, rec.Index)
				out.Records = append(out.Records, rec)
			}
		}
		var err error
		if out.Summary, err = fuzz.Finalize(cfg, out.Records); err != nil {
			return nil, err
		}
		if cfg.Metrics {
			snaps, err := c.snapshots()
			if err != nil {
				return nil, err
			}
			if out.Snapshot, err = telemetry.MergeSnapshots(snaps...); err != nil {
				return nil, err
			}
		}
	case JobExperiment:
		// Each accepted result covers its shard exactly, so the shards'
		// results in shard order are the index space.
		out.Injections = make([]dvmc.InjectionResult, 0, c.spec.TotalCases())
		for id := range c.shards {
			out.Injections = append(out.Injections, c.results[id].Injections...)
		}
		var err error
		if out.Table, err = c.spec.Experiment.figure().View(out.Injections); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("fabric: unknown job kind %q", c.spec.Kind)
	}
	return out, nil
}

// ServeHTTP implements the coordinator side of the wire protocol.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case PathRegister:
		answer(w, r, c.Register)
	case PathLease:
		answer(w, r, c.Lease)
	case PathRenew:
		answer(w, r, c.Renew)
	case PathComplete:
		var req CompleteRequest
		if !decodeBody(w, r, c.completeLimit, &req) {
			return
		}
		resp, err := c.Complete(req)
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, ErrBadResult) {
				status = http.StatusBadRequest
			}
			http.Error(w, err.Error(), status)
			return
		}
		writeJSON(w, resp)
	case PathStatus:
		writeJSON(w, c.Status())
	case PathMetrics:
		snap, err := c.MetricsSnapshot()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := snap.EncodeJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	default:
		http.NotFound(w, r)
	}
}

// answer serves one control request: decode it, reply with f's answer.
func answer[Req, Resp any](w http.ResponseWriter, r *http.Request, f func(Req) Resp) {
	var req Req
	if decodeBody(w, r, MaxControlBody, &req) {
		writeJSON(w, f(req))
	}
}

// decodeBody reads a POSTed JSON body of at most limit bytes, answering
// 413 to a longer one before it is held in memory and 400 to one with a
// field the protocol does not have.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, into any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v) // the response is committed; nothing useful to add
}
