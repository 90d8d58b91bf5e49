package coherence

import (
	"fmt"

	"dvmc/internal/mem"
	"dvmc/internal/network"
)

// SnoopCache is the cache controller of the MOSI snooping protocol. All
// coherence requests are broadcast on the totally ordered address tree;
// every controller (including the requestor and the home memory
// controller) processes every request in the same global order, and the
// broadcast sequence number is the logical time base (Section 4.3).
//
// A transaction's *ordering point* is the snoop of its own broadcast: the
// epoch begins there even though data may arrive later over the torus.
// Foreign requests that are ordered between a transaction's ordering
// point and its data arrival are recorded as deferred transitions; when
// the data lands, local waiters perform inside the original epoch, the
// deferred epoch transitions are replayed with the logical times at which
// they were ordered, and the block is supplied to the recorded
// requestors. Everything protocol-independent lives in the embedded
// ctrlCore.
type SnoopCache struct {
	ctrlCore
	bcast *network.BroadcastTree
	data  network.Network
}

var _ Controller = (*SnoopCache)(nil)

// snoopTransition is a deferred epoch transition ordered while the
// block's data was still in flight.
type snoopTransition struct {
	endKind   EpochKind
	beginKind EpochKind // 0: no successor epoch (invalidation)
	at        uint64    // broadcast sequence number of the ordering point
	toState   State
	supplyTo  network.NodeID // -1: no data supply obligation
}

// NewSnoopCache builds the snooping cache controller for a node.
func NewSnoopCache(node network.NodeID, cfg Config, bcast *network.BroadcastTree, data network.Network) *SnoopCache {
	c := &SnoopCache{bcast: bcast, data: data}
	c.init(node, cfg, c, false)
	return c
}

// seqNow is the snooping logical time: broadcasts processed so far.
func (c *SnoopCache) seqNow() uint64 { return c.bcast.Sequence() }

// sendRequest implements protocol: GetS/GetM are broadcast on the ordered
// address network.
func (c *SnoopCache) sendRequest(ms *mshr) {
	kind := SnoopGetS
	if ms.wantM {
		kind = SnoopGetM
	}
	c.bcast.Send(&network.Message{Src: c.node, Size: CtrlBytes, Class: ms.class,
		Payload: MsgSnoop{Kind: kind, Block: ms.block, Requestor: c.node}})
}

// supply ships the block to a requestor over the data network.
func (c *SnoopCache) supply(req network.NodeID, b mem.BlockAddr, data mem.Block) {
	c.data.Send(&network.Message{Src: c.node, Dst: req, Size: DataBytes, Class: network.ClassCoherence,
		Payload: MsgSnoopData{Block: b, Data: data}})
}

// Snoop processes one broadcast; the network delivers these in the global
// total order. seq is the broadcast's sequence number.
func (c *SnoopCache) Snoop(m *network.Message) {
	p, ok := m.Payload.(MsgSnoop)
	if !ok {
		if c.strict {
			panic(fmt.Sprintf("SnoopCache %d: unexpected broadcast %T", c.node, m.Payload))
		}
		return
	}
	seq := c.seqNow()
	switch p.Kind {
	case SnoopGetS, SnoopGetM:
		if p.Requestor == c.node {
			c.onOwnRequest(p, seq)
		} else {
			c.onForeignRequest(p, seq)
		}
	case SnoopPutM:
		if p.Requestor == c.node {
			c.onOwnPutM(p.Block)
		}
	}
}

// onOwnRequest is the ordering point of this cache's own transaction.
func (c *SnoopCache) onOwnRequest(p MsgSnoop, seq uint64) {
	ms := c.mshrs[p.Block]
	if ms == nil || !ms.issued || ms.ordered {
		if c.strict {
			panic(fmt.Sprintf("SnoopCache %d: own %v for %#x without matching MSHR", c.node, p.Kind, p.Block))
		}
		return
	}
	ms.ordered = true
	ms.orderedAt = seq
	l := c.l2.peek(p.Block)
	if p.Kind == SnoopGetM {
		ms.grantKind = ReadWrite
		ms.curState = Modified
		if l != nil && l.valid {
			old := c.l2.readBlock(l)
			c.epochEnd(p.Block, epochKindOf(l.state), seq, old)
			if l.state == Owned && l.dataValid {
				// Upgrade in place: we are the owner; no data transfer.
				l.state = Modified
				c.epochBegin(p.Block, ReadWrite, seq, true, old)
				ms.dataArrived = true
				c.complete(ms, l)
				return
			}
			if !c.stateFaultPromote {
				// Upgrading a demoted line abandons its dirty copy: the
				// data now expected over the torus comes from stale memory
				// (or never comes — the system believes we are the owner).
				// A promoted line is not leaving: it stays armed, and the
				// stores waiting on this upgrade still count as exercising
				// the corruption.
				c.stateFaultLeaving(p.Block, true)
			}
			// We held S: permission granted now, data still in flight.
			l.state = Modified
			l.dataValid = false
			c.epochBegin(p.Block, ReadWrite, seq, false, mem.Block{})
			return
		}
		l = c.allocate(p.Block)
		if l == nil {
			// No way free: rare transient squeeze; retry installation via
			// event (the epoch has begun regardless).
			c.epochBegin(p.Block, ReadWrite, seq, false, mem.Block{})
			c.later(4, func() { c.installRetry(ms) })
			return
		}
		c.l2.install(l, p.Block, Modified, mem.Block{}, false)
		c.epochBegin(p.Block, ReadWrite, seq, false, mem.Block{})
		return
	}
	// GetS
	ms.grantKind = ReadOnly
	ms.curState = Shared
	if l != nil && l.valid {
		if c.strict {
			panic(fmt.Sprintf("SnoopCache %d: own GetS for resident block %#x", c.node, p.Block))
		}
	}
	l = c.allocate(p.Block)
	if l == nil {
		c.epochBegin(p.Block, ReadOnly, seq, false, mem.Block{})
		c.later(4, func() { c.installRetry(ms) })
		return
	}
	c.l2.install(l, p.Block, Shared, mem.Block{}, false)
	c.epochBegin(p.Block, ReadOnly, seq, false, mem.Block{})
}

// installRetry re-attempts allocating a line for an ordered transaction
// whose set was fully transient at ordering time.
func (c *SnoopCache) installRetry(ms *mshr) {
	if c.l2.peek(ms.block) != nil {
		return
	}
	l := c.allocate(ms.block)
	if l == nil {
		c.later(4, func() { c.installRetry(ms) })
		return
	}
	st := Shared
	if ms.grantKind == ReadWrite {
		st = Modified
	}
	c.l2.install(l, ms.block, st, mem.Block{}, false)
	if ms.dataPending != nil {
		data := *ms.dataPending
		ms.dataPending = nil
		c.onSnoopData(MsgSnoopData{Block: ms.block, Data: data})
	}
}

// evict implements protocol. Dirty blocks end their epoch now (the
// current logical time) and broadcast a PutM to order the writeback;
// Shared blocks are dropped silently (snooping needs no directory
// bookkeeping for sharers).
func (c *SnoopCache) evict(l *line) {
	b := l.block
	// A demoted line takes the silent Shared drop below: the only
	// up-to-date copy leaves without a PutM.
	c.stateFaultLeaving(b, true)
	data := c.l2.readBlock(l)
	switch l.state {
	case Modified, Owned:
		c.epochEnd(b, epochKindOf(l.state), c.seqNow(), data)
		c.wb[b] = &wbEntry{data: data, dirty: true}
		c.stats.WritebacksDirty++
		c.bcast.Send(&network.Message{Src: c.node, Size: CtrlBytes, Class: network.ClassCoherence,
			Payload: MsgSnoop{Kind: SnoopPutM, Block: b, Requestor: c.node}})
	case Shared:
		c.epochEnd(b, ReadOnly, c.seqNow(), data)
		c.stats.EvictionsClean++
	default:
		panic(fmt.Sprintf("SnoopCache %d: evict of %v line %#x", c.node, l.state, b))
	}
	c.dropLine(l)
}

// onForeignRequest reacts to another node's ordered request.
func (c *SnoopCache) onForeignRequest(p MsgSnoop, seq uint64) {
	b := p.Block
	if ms := c.mshrs[b]; ms != nil && ms.ordered && !ms.dataArrived {
		c.deferTransition(ms, p, seq)
		return
	}
	l := c.l2.peek(b)
	if l != nil && l.valid {
		// A foreign request ordered against a demoted line misses the
		// supply obligation the real owner carries (the Shared cases below
		// supply nothing), so the requestor sees stale memory or hangs.
		// Only a GetM invalidates the corrupted line.
		c.stateFaultLeaving(b, p.Kind == SnoopGetM)
		data := c.l2.readBlock(l)
		switch {
		case p.Kind == SnoopGetS && l.state == Modified:
			c.epochEnd(b, ReadWrite, seq, data)
			l.state = Owned
			c.epochBegin(b, ReadOnly, seq, true, data)
			c.supply(p.Requestor, b, data)
		case p.Kind == SnoopGetS && l.state == Owned:
			c.supply(p.Requestor, b, data)
		case p.Kind == SnoopGetM:
			c.epochEnd(b, epochKindOf(l.state), seq, data)
			if l.state == Modified || l.state == Owned {
				c.supply(p.Requestor, b, data)
			}
			c.dropLine(l)
		}
		return
	}
	if e, ok := c.wb[b]; ok && e.dirty {
		// We are still the owner in global order; our PutM has not been
		// ordered yet. Supply from the writeback buffer.
		c.supply(p.Requestor, b, e.data)
		if p.Kind == SnoopGetM {
			e.dirty = false // ownership moved on before our PutM ordered
		}
	}
}

// deferTransition records a foreign request ordered inside our pending
// transaction's epoch, to be replayed when the data arrives.
func (c *SnoopCache) deferTransition(ms *mshr, p MsgSnoop, seq uint64) {
	switch {
	case p.Kind == SnoopGetS && ms.curState == Modified:
		ms.transitions = append(ms.transitions, snoopTransition{
			endKind: ReadWrite, beginKind: ReadOnly, at: seq, toState: Owned, supplyTo: p.Requestor})
		ms.curState = Owned
	case p.Kind == SnoopGetS && ms.curState == Owned:
		ms.transitions = append(ms.transitions, snoopTransition{at: seq, toState: Owned, supplyTo: p.Requestor})
	case p.Kind == SnoopGetM && ms.curState == Modified:
		ms.transitions = append(ms.transitions, snoopTransition{
			endKind: ReadWrite, at: seq, toState: Invalid, supplyTo: p.Requestor})
		ms.curState = Invalid
	case p.Kind == SnoopGetM && ms.curState == Owned:
		ms.transitions = append(ms.transitions, snoopTransition{
			endKind: ReadOnly, at: seq, toState: Invalid, supplyTo: p.Requestor})
		ms.curState = Invalid
	case p.Kind == SnoopGetM && ms.curState == Shared:
		ms.transitions = append(ms.transitions, snoopTransition{
			endKind: ReadOnly, at: seq, toState: Invalid, supplyTo: -1})
		ms.curState = Invalid
	}
}

// onOwnPutM is the ordering point of our writeback.
func (c *SnoopCache) onOwnPutM(b mem.BlockAddr) {
	e, ok := c.wb[b]
	if !ok {
		if c.strict {
			panic(fmt.Sprintf("SnoopCache %d: own PutM for %#x without wb entry", c.node, b))
		}
		return
	}
	if e.dirty {
		home := c.cfg.HomeOf(b)
		c.data.Send(&network.Message{Src: c.node, Dst: home, Size: DataBytes, Class: network.ClassCoherence,
			Payload: MsgSnoopWB{Block: b, Data: e.data, From: c.node}})
	}
	c.wbDone(b)
}

// HandleData takes a block arriving over the torus into the controller.
func (c *SnoopCache) HandleData(m *network.Message) {
	if _, ok := m.Payload.(MsgSnoopData); !ok {
		if c.strict {
			panic(fmt.Sprintf("SnoopCache %d: unexpected data payload %T", c.node, m.Payload))
		}
		return
	}
	c.receive(m)
}

// deliver implements protocol: only data blocks pass HandleData.
func (c *SnoopCache) deliver(m *network.Message) { c.onSnoopData(m.Payload.(MsgSnoopData)) }

func (c *SnoopCache) onSnoopData(p MsgSnoopData) {
	ms := c.mshrs[p.Block]
	if ms == nil || !ms.ordered {
		if c.strict {
			panic(fmt.Sprintf("SnoopCache %d: data for %#x without ordered MSHR", c.node, p.Block))
		}
		return
	}
	l := c.l2.peek(p.Block)
	if l == nil {
		// The ordering point could not allocate a line yet; stash the
		// data until installRetry succeeds.
		d := p.Data
		ms.dataPending = &d
		return
	}
	ms.dataArrived = true
	c.l2.writeBlock(l, p.Data)
	c.epochData(p.Block, p.Data)
	c.complete(ms, l)
}

// complete serves waiters inside the granted epoch, replays deferred
// transitions, and retires or re-issues the MSHR.
func (c *SnoopCache) complete(ms *mshr, l *line) {
	c.serveWaiters(ms, l, ms.grantKind == ReadWrite)
	c.l1.insert(l.block)
	// Replay deferred transitions with their recorded logical times; the
	// data now includes any stores performed above, which is exactly the
	// data at the (logically past) end of our epoch.
	data := c.l2.readBlock(l)
	for _, tr := range ms.transitions {
		if tr.endKind != 0 {
			c.epochEnd(ms.block, tr.endKind, tr.at, data)
		}
		if tr.beginKind != 0 {
			c.epochBegin(ms.block, tr.beginKind, tr.at, true, data)
		}
		if tr.supplyTo >= 0 {
			c.supply(tr.supplyTo, ms.block, data)
		}
		l.state = tr.toState
	}
	if l.state == Invalid {
		c.dropLine(l)
	}
	if c.retire(ms) {
		// Shared grant with store waiters (or we lost the line before the
		// stores could perform): upgrade with a fresh transaction.
		ms.transitions = ms.transitions[:0]
		ms.ordered = false
		ms.dataArrived = false
		ms.grantKind = 0
		ms.curState = Invalid
		c.issue(ms)
	}
}
