package coherence

import (
	"fmt"

	"dvmc/internal/mem"
	"dvmc/internal/network"
)

// DirCache is the cache controller of the blocking MOSI directory
// protocol. One instance serves one node's L1 (tag filter) and L2 (the
// coherence point); everything protocol-independent lives in the embedded
// ctrlCore. Transient conditions live in MSHRs; the home controller's
// per-block blocking keeps the race surface small:
//
//   - Inv arrives only for blocks held in S (or already evicted).
//   - Recall arrives only for blocks held in M/O, or sitting in the
//     writeback buffer awaiting a WBAck.
//   - Data/PermM arrive only for blocks with an outstanding MSHR.
//
// Strict mode panics on any other combination (a protocol bug); fault-
// injection campaigns disable strict mode so that injected corruptions
// produce architecturally visible misbehaviour for DVMC to catch rather
// than a simulator abort.
type DirCache struct {
	ctrlCore
	net   network.Network
	clock LogicalClock
}

var _ Controller = (*DirCache)(nil)

// NewDirCache builds the directory cache controller for a node. clock is
// the node's logical time base (a SkewedClock in the directory system).
func NewDirCache(node network.NodeID, cfg Config, net network.Network, clock LogicalClock) *DirCache {
	c := &DirCache{net: net, clock: clock}
	c.init(node, cfg, c, true)
	return c
}

// beginNow and endNow stamp epoch events with the node clock: directory
// transitions take effect when their message is handled.
func (c *DirCache) beginNow(b mem.BlockAddr, k EpochKind, data mem.Block) {
	c.epochBegin(b, k, c.clock.LogicalNow(), true, data)
}

func (c *DirCache) endNow(b mem.BlockAddr, k EpochKind, data mem.Block) {
	c.epochEnd(b, k, c.clock.LogicalNow(), data)
}

// toHome sends a coherence-class message to block b's home controller.
func (c *DirCache) toHome(b mem.BlockAddr, size int, payload any) {
	c.net.Send(&network.Message{Src: c.node, Dst: c.cfg.HomeOf(b), Size: size, Class: network.ClassCoherence, Payload: payload})
}

// sendRequest implements protocol: GetS/GetM go to the home controller.
func (c *DirCache) sendRequest(ms *mshr) {
	var payload any
	if ms.wantM {
		payload = MsgGetM{Block: ms.block, Requestor: c.node}
	} else {
		payload = MsgGetS{Block: ms.block, Requestor: c.node}
	}
	c.net.Send(&network.Message{Src: c.node, Dst: c.cfg.HomeOf(ms.block), Size: CtrlBytes, Class: ms.class, Payload: payload})
}

// Handle takes a delivered network message into the controller.
func (c *DirCache) Handle(m *network.Message) { c.receive(m) }

// deliver implements protocol: dispatch by payload.
func (c *DirCache) deliver(m *network.Message) {
	switch p := m.Payload.(type) {
	case MsgData:
		c.onData(p)
	case MsgPermM:
		c.onPermM(p)
	case MsgInv:
		c.onInv(p)
	case MsgRecall:
		c.onRecall(p)
	case MsgWBAck:
		c.wbDone(p.Block)
	default:
		if c.strict {
			panic(fmt.Sprintf("DirCache %d: unexpected payload %T", c.node, m.Payload))
		}
	}
}

// evict implements protocol: the line's epoch ends now, and the home is
// told with a PutM (dirty data) or a PutS (sharer bookkeeping); the block
// sits in the writeback buffer until the home's WBAck.
func (c *DirCache) evict(l *line) {
	b := l.block
	// A demoted line's dirty data leaves through the clean (Shared)
	// eviction path: the only up-to-date copy is dropped.
	c.stateFaultLeaving(b, true)
	data := c.l2.readBlock(l)
	switch l.state {
	case Modified, Owned:
		c.endNow(b, epochKindOf(l.state), data)
		c.wb[b] = &wbEntry{data: data, dirty: true}
		c.stats.WritebacksDirty++
		c.toHome(b, DataBytes, MsgPutM{Block: b, Requestor: c.node, Data: data})
	case Shared:
		c.endNow(b, ReadOnly, data)
		c.wb[b] = &wbEntry{}
		c.stats.EvictionsClean++
		c.toHome(b, CtrlBytes, MsgPutS{Block: b, Requestor: c.node})
	default:
		panic(fmt.Sprintf("DirCache %d: evict of %v line %#x", c.node, l.state, b))
	}
	c.dropLine(l)
}

// onData installs a granted block and serves the MSHR's waiters.
func (c *DirCache) onData(p MsgData) {
	ms := c.mshrs[p.Block]
	if ms == nil {
		if c.strict {
			panic(fmt.Sprintf("DirCache %d: Data for %#x without MSHR", c.node, p.Block))
		}
		return
	}
	l := c.l2.peek(p.Block)
	if l == nil {
		l = c.allocate(p.Block)
		if l == nil {
			// Every way in the set is transient; retry installation.
			c.later(4, func() { c.onData(p) })
			return
		}
	} else if l.valid && l.state != Invalid {
		// Home's grant data (stale memory) is about to overwrite a
		// demoted line's dirty copy: the stores are lost.
		c.stateFaultLeaving(p.Block, true)
		// Upgrading an existing Shared copy: its Read-Only epoch ends at
		// the instant the new (Read-Write) grant takes effect.
		c.endNow(p.Block, epochKindOf(l.state), c.l2.readBlock(l))
	}
	st := Shared
	kind := ReadOnly
	if p.Exclusive {
		st = Modified
		kind = ReadWrite
	}
	c.l2.install(l, p.Block, st, p.Data, true)
	c.l1.insert(p.Block)
	c.beginNow(p.Block, kind, p.Data)
	c.serve(ms, l, p.Exclusive)
}

// onPermM upgrades an Owned line to Modified.
func (c *DirCache) onPermM(p MsgPermM) {
	ms := c.mshrs[p.Block]
	l := c.l2.peek(p.Block)
	if ms == nil || l == nil || !l.valid {
		if c.strict {
			panic(fmt.Sprintf("DirCache %d: PermM for %#x in bad state", c.node, p.Block))
		}
		return
	}
	data := c.l2.readBlock(l)
	c.endNow(p.Block, ReadOnly, data)
	l.state = Modified
	c.beginNow(p.Block, ReadWrite, data)
	c.serve(ms, l, true)
}

// serve completes waiters after a grant and unblocks the home. If Shared
// was granted but store waiters remain, the MSHR re-issues as GetM.
func (c *DirCache) serve(ms *mshr, l *line, exclusive bool) {
	c.serveWaiters(ms, l, exclusive)
	c.toHome(ms.block, CtrlBytes, MsgUnblock{Block: ms.block, From: c.node})
	if c.retire(ms) {
		// Shared was not enough; upgrade. The home has been unblocked, so
		// this is a fresh transaction — demand traffic on behalf of the
		// stores, even if a replay load opened the MSHR.
		ms.class = network.ClassCoherence
		c.issue(ms)
	}
}

// onInv invalidates a Shared copy and acks the home.
func (c *DirCache) onInv(p MsgInv) {
	l := c.l2.peek(p.Block)
	if l != nil && l.valid {
		c.stateFaultLeaving(p.Block, true) // a demoted line's dirty copy is dropped
		if l.state == Modified || l.state == Owned {
			if c.strict {
				panic(fmt.Sprintf("DirCache %d: Inv for owned block %#x", c.node, p.Block))
			}
		}
		c.endNow(p.Block, epochKindOf(l.state), c.l2.readBlock(l))
		c.dropLine(l)
	}
	c.toHome(p.Block, CtrlBytes, MsgInvAck{Block: p.Block, From: c.node})
}

// onRecall surrenders an owned block to the home controller.
func (c *DirCache) onRecall(p MsgRecall) {
	// Home recalls what it believes is this node's owned copy; a demoted
	// line fails the ownership check below, so the response carries no
	// data and the dirty copy is lost.
	c.stateFaultLeaving(p.Block, true)
	l := c.l2.peek(p.Block)
	if l != nil && l.valid && (l.state == Modified || l.state == Owned) {
		data := c.l2.readBlock(l)
		if p.ForGetM {
			c.endNow(p.Block, epochKindOf(l.state), data)
			c.dropLine(l)
		} else if l.state == Modified {
			c.endNow(p.Block, ReadWrite, data)
			l.state = Owned
			c.beginNow(p.Block, ReadOnly, data)
		}
		c.toHome(p.Block, DataBytes, MsgRecallAck{Block: p.Block, Data: data, From: c.node})
		return
	}
	if e, ok := c.wb[p.Block]; ok && e.dirty {
		// Eviction raced with the recall: respond from the writeback
		// buffer; the stale PutM will be acked later.
		c.toHome(p.Block, DataBytes, MsgRecallAck{Block: p.Block, Data: e.data, From: c.node})
		return
	}
	if c.strict {
		panic(fmt.Sprintf("DirCache %d: Recall for %#x not owned", c.node, p.Block))
	}
	// Under fault injection a misrouted recall can land here; answer with
	// zeros so the protocol proceeds and DVMC sees the corruption.
	c.toHome(p.Block, DataBytes, MsgRecallAck{Block: p.Block, From: c.node})
}
