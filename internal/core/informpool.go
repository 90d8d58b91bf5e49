package core

import (
	"errors"

	"dvmc/internal/network"
)

// InformPool holds the free lists of the messages that carry CET→MET
// verification traffic, one per inform payload type (network.Pool): with
// a warm pool the steady-state inform path allocates nothing.
//
// Ownership is linear, as for every message (DESIGN.md, "Object
// lifetimes"): the CET takes a message from the pool when it sends, and
// the system's inform fallback handler releases it after
// MemChecker.Handle comes back, or the torus does when it drops it.
// Handle is synchronous and copies everything it keeps (queuedInform for
// epoch informs, metEntry fields for open/closed informs), so nothing
// aliases a released message.
//
// The zero value is ready to use and starts empty. A nil *InformPool is
// valid everywhere and hands out messages from no pool, so standalone
// CacheChecker tests need no pool. The simulator is single-threaded; the
// pool is not safe for concurrent use, and each system uses the one in
// the storage it was built on, which has one owner at a time.
type InformPool struct {
	epochs  network.Pool[InformEpoch]
	opens   network.Pool[InformOpenEpoch]
	closeds network.Pool[InformClosedEpoch]
}

// epochList, openList and closedList are p's lists, nil for a nil p.
func (p *InformPool) epochList() *network.Pool[InformEpoch] {
	if p == nil {
		return nil
	}
	return &p.epochs
}

func (p *InformPool) openList() *network.Pool[InformOpenEpoch] {
	if p == nil {
		return nil
	}
	return &p.opens
}

func (p *InformPool) closedList() *network.Pool[InformClosedEpoch] {
	if p == nil {
		return nil
	}
	return &p.closeds
}

// Release releases a delivered inform: m.Release, which returns m to the
// list it came from, whichever pool that is. Nil-safe.
func (p *InformPool) Release(m *network.Message) { m.Release() }

// Balance reports an error unless every inform p handed out is back
// exactly once (network.Pool.Balance).
func (p *InformPool) Balance() error {
	return errors.Join(p.epochs.Balance(), p.opens.Balance(), p.closeds.Balance())
}
