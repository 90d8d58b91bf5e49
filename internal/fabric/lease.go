package fabric

// Shard is one contiguous index range [From, To) of a job's case space,
// the unit of lease assignment. Shard content is a pure function of
// (spec, From, To), so a shard re-run after a steal or crash reproduces
// identical bytes.
type Shard struct {
	ID   int `json:"id"`
	From int `json:"from"`
	To   int `json:"to"`
}

// LeaseState is one shard's position in the lease lifecycle.
type LeaseState uint8

const (
	// LeasePending: never assigned, or returned by an expired lease.
	LeasePending LeaseState = iota
	// LeaseActive: assigned to a worker whose lease has not expired.
	LeaseActive
	// LeaseDone: a result was accepted; terminal.
	LeaseDone
)

// String implements fmt.Stringer.
func (s LeaseState) String() string {
	switch s {
	case LeasePending:
		return "pending"
	case LeaseActive:
		return "active"
	case LeaseDone:
		return "done"
	default:
		return "invalid"
	}
}

// LeaseTable is the fabric's assignment state machine. It is pure: all
// time comes in through the `now` argument (a logical clock — the
// coordinator feeds wall seconds, tests feed integers), there is no
// goroutine, no I/O, and no randomness, so every transition is
// unit-testable and replayable.
//
// Assignment policy: Acquire hands out the lowest-ID pending shard;
// when none is pending it steals the lowest-ID expired lease. Stealing
// is safe because shard content is index-determined — two workers
// racing on a stolen shard produce identical results and the first
// Complete wins.
type LeaseTable struct {
	shards []Shard
	state  []LeaseState
	owner  []string
	expiry []uint64
	ttl    uint64
}

// NewLeaseTable builds the table over a fixed shard partition. ttl is
// the lease lifetime in clock units; a lease not renewed within ttl
// becomes stealable.
func NewLeaseTable(shards []Shard, ttl uint64) *LeaseTable {
	if ttl == 0 {
		ttl = 1
	}
	return &LeaseTable{
		shards: append([]Shard(nil), shards...),
		state:  make([]LeaseState, len(shards)),
		owner:  make([]string, len(shards)),
		expiry: make([]uint64, len(shards)),
		ttl:    ttl,
	}
}

// Acquire assigns a shard to worker, preferring pending shards over
// stealable expired ones, lowest ID first. ok is false when nothing is
// assignable (all remaining shards are done or actively leased).
func (t *LeaseTable) Acquire(worker string, now uint64) (s Shard, ok bool) {
	steal := -1
	for i := range t.shards {
		switch t.state[i] {
		case LeasePending:
			t.lease(i, worker, now)
			return t.shards[i], true
		case LeaseActive:
			if now >= t.expiry[i] && steal < 0 {
				steal = i
			}
		case LeaseDone:
		default:
		}
	}
	if steal >= 0 {
		t.lease(steal, worker, now)
		return t.shards[steal], true
	}
	return Shard{}, false
}

func (t *LeaseTable) lease(i int, worker string, now uint64) {
	t.state[i] = LeaseActive
	t.owner[i] = worker
	t.expiry[i] = now + t.ttl
}

// Renew extends worker's lease on shard id. It fails if the shard is
// done, was never leased, or is now owned by a different worker (the
// lease expired and was stolen — the renewing worker should abandon the
// shard; if it completes anyway, the duplicate result is identical and
// harmlessly ignored).
func (t *LeaseTable) Renew(worker string, id int, now uint64) bool {
	if id < 0 || id >= len(t.shards) {
		return false
	}
	if t.state[id] != LeaseActive || t.owner[id] != worker {
		return false
	}
	t.expiry[id] = now + t.ttl
	return true
}

// Release returns an active shard to pending: its assignment is
// abandoned, and the next Acquire may hand it out again.
func (t *LeaseTable) Release(id int) {
	if id < 0 || id >= len(t.shards) || t.state[id] != LeaseActive {
		return
	}
	t.state[id] = LeasePending
	t.owner[id] = ""
	t.expiry[id] = 0
}

// Complete marks shard id done. It accepts a completion from any worker
// — even one whose lease expired — because shard results are
// index-determined and therefore interchangeable. Completing an
// already-done shard reports false so the caller can drop the duplicate
// result.
func (t *LeaseTable) Complete(id int) bool {
	if id < 0 || id >= len(t.shards) {
		return false
	}
	if t.state[id] == LeaseDone {
		return false
	}
	t.state[id] = LeaseDone
	t.owner[id] = ""
	return true
}

// Done reports whether every shard completed.
func (t *LeaseTable) Done() bool {
	for _, s := range t.state {
		if s != LeaseDone {
			return false
		}
	}
	return true
}

// Counts tallies shard states as of now: expired active leases count as
// pending (they are stealable, i.e. effectively unassigned).
func (t *LeaseTable) Counts(now uint64) (pending, active, done int) {
	for i, s := range t.state {
		switch s {
		case LeasePending:
			pending++
		case LeaseActive:
			if now >= t.expiry[i] {
				pending++
			} else {
				active++
			}
		case LeaseDone:
			done++
		default:
		}
	}
	return
}

// Len is the total shard count.
func (t *LeaseTable) Len() int { return len(t.shards) }

// State returns shard id's current state (LeaseDone queries drive the
// coordinator's duplicate-result handling and resume path).
func (t *LeaseTable) State(id int) LeaseState {
	if id < 0 || id >= len(t.shards) {
		return LeasePending
	}
	return t.state[id]
}
