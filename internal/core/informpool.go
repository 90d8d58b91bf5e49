package core

import (
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// InformPool recycles the network.Message envelopes and inform payload
// structs that carry CET→MET verification traffic. Without it every
// epoch end costs two heap allocations (the message plus the payload
// boxed into the `any` field); with a warm pool the steady-state inform
// path allocates nothing.
//
// Ownership is linear: the CET takes an envelope and payload from the
// pool when it sends, and the system's inform fallback handler returns
// them with Release after MemChecker.Handle comes back. Handle is
// synchronous and copies everything it keeps (queuedInform for epoch
// informs, metEntry fields for open/closed informs), so nothing aliases
// the released structs. Coherence-class messages are deliberately NOT
// pooled: the home controllers park them in per-block queues, fault
// injection duplicates and holds them, and span observers read them
// after delivery, so no one owner knows when a message is dead
// (DESIGN.md, "Object lifetimes").
//
// The pool is four sim.FreeLists behind the inform vocabulary; its zero
// value is ready to use and starts empty. A nil *InformPool is valid
// everywhere and degrades to plain allocation, so standalone
// CacheChecker tests need no pool. The simulator is single-threaded; the
// pool is not safe for concurrent use, and each System owns its own.
type InformPool struct {
	msgs    sim.FreeList[network.Message]
	epochs  sim.FreeList[InformEpoch]
	opens   sim.FreeList[InformOpenEpoch]
	closeds sim.FreeList[InformClosedEpoch]
}

//dvmc:hotpath
func (p *InformPool) message() *network.Message {
	if p == nil {
		//dvmc:alloc-ok the nil-pool fallback is for standalone checker tests; a system always has a pool
		return &network.Message{}
	}
	return p.msgs.Get()
}

//dvmc:hotpath
func (p *InformPool) epoch() *InformEpoch {
	if p == nil {
		//dvmc:alloc-ok the nil-pool fallback is for standalone checker tests; a system always has a pool
		return &InformEpoch{}
	}
	return p.epochs.Get()
}

//dvmc:hotpath
func (p *InformPool) open() *InformOpenEpoch {
	if p == nil {
		//dvmc:alloc-ok the nil-pool fallback is for standalone checker tests; a system always has a pool
		return &InformOpenEpoch{}
	}
	return p.opens.Get()
}

//dvmc:hotpath
func (p *InformPool) closed() *InformClosedEpoch {
	if p == nil {
		//dvmc:alloc-ok the nil-pool fallback is for standalone checker tests; a system always has a pool
		return &InformClosedEpoch{}
	}
	return p.closeds.Get()
}

// Release returns a delivered inform message and its payload to the
// pool. Messages whose payload is not a pooled inform pointer (value
// payloads from tests, foreign traffic) are ignored. Nil-safe.
func (p *InformPool) Release(m *network.Message) {
	if p == nil || m == nil {
		return
	}
	switch pl := m.Payload.(type) {
	case *InformEpoch:
		*pl = InformEpoch{}
		p.epochs.Put(pl)
	case *InformOpenEpoch:
		*pl = InformOpenEpoch{}
		p.opens.Put(pl)
	case *InformClosedEpoch:
		*pl = InformClosedEpoch{}
		p.closeds.Put(pl)
	default:
		return
	}
	*m = network.Message{}
	p.msgs.Put(m)
}
