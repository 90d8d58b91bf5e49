package coherence

import (
	"errors"

	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// Spare is what retired controllers and homes leave for those of the
// next system its owner builds (DESIGN.md, "Object lifetimes"): the
// controllers and homes, one list per type, which its constructors
// re-initialise as the package's build new ones, and the free lists of
// the records they take, which every node of the system shares, each
// record cleared when put back. So a system built on a Spare runs exactly
// as one built fresh. A Spare has one owner at a time and is not safe for
// concurrent use; the zero value is empty.
type Spare struct {
	dirCaches   sim.FreeList[DirCache]
	snoopCaches sim.FreeList[SnoopCache]
	dirHomes    sim.FreeList[DirHome]
	snoopHomes  sim.FreeList[SnoopHome]
	records
}

// records are the free lists of the event records and messages, one per
// type, of the controllers and homes that draw on them: one controller's
// own (its constructor's), or every node's of a system built on a Spare.
// Whoever takes a record binds itself as its owner; a message binds its
// list, and goes back to it from whichever component releases it.
type records struct {
	accesses   sim.FreeList[access]
	mshrs      sim.FreeList[mshr]
	retries    sim.FreeList[retry]
	dirWaits   sim.FreeList[dirWait]
	snoopWaits sim.FreeList[snoopWait]
	dirEntries sim.FreeList[dirEntry]
	msgs       messages
}

// messages are the free lists of the coherence messages, one per payload
// type.
type messages struct {
	getS      network.Pool[MsgGetS]
	getM      network.Pool[MsgGetM]
	putS      network.Pool[MsgPutS]
	putM      network.Pool[MsgPutM]
	data      network.Pool[MsgData]
	permM     network.Pool[MsgPermM]
	inv       network.Pool[MsgInv]
	invAck    network.Pool[MsgInvAck]
	recall    network.Pool[MsgRecall]
	recallAck network.Pool[MsgRecallAck]
	wbAck     network.Pool[MsgWBAck]
	unblock   network.Pool[MsgUnblock]
	snoop     network.Pool[MsgSnoop]
	snoopData network.Pool[MsgSnoopData]
	snoopWB   network.Pool[MsgSnoopWB]
}

// Balance reports an error unless every coherence message s handed out is
// back exactly once (network.Pool.Balance).
func (s *Spare) Balance() error { return s.msgs.balance() }

func (m *messages) balance() error {
	return errors.Join(m.getS.Balance(), m.getM.Balance(), m.putS.Balance(), m.putM.Balance(),
		m.data.Balance(), m.permM.Balance(), m.inv.Balance(), m.invAck.Balance(), m.recall.Balance(),
		m.recallAck.Balance(), m.wbAck.Balance(), m.unblock.Balance(), m.snoop.Balance(),
		m.snoopData.Balance(), m.snoopWB.Balance())
}

// NewDirCache is NewDirCache on a kept controller, drawing its records
// from s.
func (s *Spare) NewDirCache(node network.NodeID, cfg Config, net network.Network, clock LogicalClock) *DirCache {
	return s.dirCaches.Get().init(node, cfg, net, clock, &s.records)
}

// NewSnoopCache is NewDirCache for the snooping controller.
func (s *Spare) NewSnoopCache(node network.NodeID, cfg Config, bcast *network.BroadcastTree, data network.Network) *SnoopCache {
	return s.snoopCaches.Get().init(node, cfg, bcast, data, &s.records)
}

// NewDirHome is NewDirHome on a kept home, drawing its records from s.
func (s *Spare) NewDirHome(node network.NodeID, cfg Config, net network.Network, memory *mem.Memory) *DirHome {
	return s.dirHomes.Get().init(node, cfg, net, memory, &s.records)
}

// NewSnoopHome is NewDirHome for the snooping home.
func (s *Spare) NewSnoopHome(node network.NodeID, cfg Config, data network.Network, memory *mem.Memory) *SnoopHome {
	return s.snoopHomes.Get().init(node, cfg, data, memory, &s.records)
}

// Keep takes back a retired system's controllers and homes, releasing
// the messages they still hold. Node i's controller and home are cs[i]
// and hs[i], of one protocol.
func (s *Spare) Keep(cs []Controller, hs []Home) {
	for i, c := range cs {
		switch c := c.(type) {
		case *DirCache:
			c.dropInbox()
			s.dirCaches.Put(c)
			h := hs[i].(*DirHome)
			h.dropMessages()
			s.dirHomes.Put(h)
		case *SnoopCache:
			c.dropInbox()
			s.snoopCaches.Put(c)
			s.snoopHomes.Put(hs[i].(*SnoopHome))
		}
	}
}
