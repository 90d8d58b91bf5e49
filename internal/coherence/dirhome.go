package coherence

import (
	"fmt"
	"slices"

	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// DirHome is the home memory/directory controller of the blocking MOSI
// directory protocol. Each node owns the blocks for which it is the home
// (block-address interleaving). The controller serialises transactions
// per block: while one is in flight, conflicting requests queue.
//
// The directory state per block is the owner (the single node in M or O)
// and the sharer set; the owner is never simultaneously in the sharer
// set. Memory holds the last written-back data; in MOSI the owner's copy
// can be newer, so memory is consulted only when no owner exists.
type DirHome struct {
	node network.NodeID
	cfg  Config
	net  network.Network

	memory *mem.Memory

	queue

	entries map[mem.BlockAddr]*dirEntry

	// waits recycles the records of work waiting out a latency in events,
	// and free the directory entries a reset or a new life drops: the
	// home's own lists, or its Spare's.
	waits *sim.FreeList[dirWait]
	free  *sim.FreeList[dirEntry]

	newBlock func(b mem.BlockAddr, data mem.Block)

	stats  HomeStats
	strict bool
}

var _ Home = (*DirHome)(nil)

type txnKind uint8

const (
	txnGetS txnKind = iota + 1
	txnGetM
)

// homeTxn is the GetS or GetM in flight for one block. It lives in the
// block's dirEntry: starting a transaction overwrites the record, ending
// one clears active.
type homeTxn struct {
	active    bool
	kind      txnKind
	requestor network.NodeID
	needAcks  int
	haveData  bool
	data      mem.Block
	upgrade   bool   // requestor already owns the data (PermM path)
	granted   bool   // grant sent; waiting for Unblock
	serial    uint32 // counts the block's transactions; names this one to a DRAM read
}

type dirEntry struct {
	owner   network.NodeID // -1: memory is the owner
	sharers uint64         // bitmask; node i at bit i
	busy    bool           // a transaction or a PutM's memory write holds the block
	txn     homeTxn
	queue   []*network.Message
}

// begin starts a transaction of kind for requestor in the entry's record.
func (e *dirEntry) begin(kind txnKind, requestor network.NodeID) *homeTxn {
	e.busy = true
	e.txn = homeTxn{active: true, kind: kind, requestor: requestor, serial: e.txn.serial + 1}
	return &e.txn
}

// end closes the entry's transaction and frees the block.
func (e *dirEntry) end() {
	e.busy = false
	e.txn.active = false
}

// NewDirHome builds the home controller for a node. The memory is the
// slice of global memory this node is home for.
func NewDirHome(node network.NodeID, cfg Config, net network.Network, memory *mem.Memory) *DirHome {
	return new(DirHome).init(node, cfg, net, memory, new(records))
}

// init makes h what NewDirHome builds, taking its records from r.
func (h *DirHome) init(node network.NodeID, cfg Config, net network.Network, memory *mem.Memory, r *records) *DirHome {
	h.dropEntries()
	*h = DirHome{node: node, cfg: cfg, net: net, memory: memory, strict: true,
		queue: queue{events: h.events.Emptied()}, entries: sim.Cleared(h.entries), waits: &r.dirWaits, free: &r.dirEntries}
	return h
}

// SetStrict toggles panic-on-protocol-anomaly (default true).
func (h *DirHome) SetStrict(s bool) { h.strict = s }

// SetNewBlockListener installs the hook fired the first time any
// processor requests a block, with the block's memory data. The DVMC
// memory-epoch table uses this to construct its initial entry ("using the
// current logical time as the last end time of a Read-Write epoch and ...
// the initial checksum from the data in memory").
func (h *DirHome) SetNewBlockListener(fn func(b mem.BlockAddr, data mem.Block)) { h.newBlock = fn }

// Memory returns the home's memory module (for assembly and injection).
func (h *DirHome) Memory() *mem.Memory { return h.memory }

// Stats returns home-controller counters.
func (h *DirHome) Stats() HomeStats { return h.stats }

func (h *DirHome) entry(b mem.BlockAddr) *dirEntry {
	e, ok := h.entries[b]
	if !ok {
		e = h.free.Get()
		*e = dirEntry{owner: -1}
		h.entries[b] = e
		if h.newBlock != nil {
			h.newBlock(b, h.memory.ReadBlock(b))
		}
	}
	return e
}

// dirWait is one piece of work waiting out a latency in the home's event
// queue: a delivered message in the input latch, a request in the
// directory lookup, or a transaction waiting for DRAM. The queue holds it
// through step until it runs; it is released when its work is done.
type dirWait struct {
	home *DirHome // the home that took it
	step func()   // run, bound once when the record is first made
	what dirWork
	m    *network.Message // workDispatch, workStart
	e    *dirEntry        // all but workDispatch
	// serial is the transaction a workGetMData read serves: a record
	// overwritten by a later transaction by then takes no data.
	serial uint32
	// block is what the DRAM waits read or write; from and data are the
	// PutM's writer and contents.
	block mem.BlockAddr
	from  network.NodeID
	data  mem.Block
}

type dirWork uint8

const (
	workDispatch dirWork = iota + 1 // input latch → dispatch
	workStart                       // directory lookup → start
	workGetSData                    // DRAM read for a GetS
	workGetMData                    // DRAM read for a GetM
	workPutM                        // DRAM write of a PutM
	workNext                        // directory lookup → start of a queued request
)

// after schedules w, just taken and filled in by the caller, delay cycles
// from now, as h's.
func (h *DirHome) after(delay sim.Cycle, w *dirWait) {
	if w.step == nil {
		w.step = w.run
	}
	w.home = h
	h.later(delay, w.step)
}

// run does the work the record stood for and releases it.
func (w *dirWait) run() {
	h := w.home
	h.perform(w)
	*w = dirWait{step: w.step}
	h.waits.Put(w)
}

func (h *DirHome) perform(w *dirWait) {
	switch w.what {
	case workDispatch:
		h.dispatch(w.m)
	case workStart:
		h.start(w.e, w.m)
	case workGetSData:
		w.e.txn.haveData = true
		w.e.txn.data = h.memory.ReadBlock(w.block)
		h.maybeGrant(w.block, w.e)
	case workGetMData:
		if t := &w.e.txn; t.active && t.serial == w.serial {
			t.haveData = true
			t.data = h.memory.ReadBlock(w.block)
		}
		h.maybeGrant(w.block, w.e)
	case workPutM:
		h.memory.WriteBlock(w.block, w.data)
		h.net.Send(network.Wrap(h.to(w.from, CtrlBytes), MsgWBAck{Block: w.block}))
		w.e.end()
		h.next(w.block, w.e)
	case workNext:
		if w.e.busy {
			// A fresh request slipped in; requeue at the front.
			w.e.queue = slices.Insert(w.e.queue, 0, w.m)
			return
		}
		h.start(w.e, w.m)
	}
}

// to addresses a coherence-class envelope of size bytes to dst.
func (h *DirHome) to(dst network.NodeID, size int) network.Message {
	return network.Message{Src: h.node, Dst: dst, Size: size, Class: network.ClassCoherence}
}

// Handle takes a delivered network message into the input latch.
func (h *DirHome) Handle(m *network.Message) {
	w := h.waits.Get()
	w.what, w.m = workDispatch, m
	h.after(1, w)
}

func (h *DirHome) dispatch(m *network.Message) {
	switch p := m.Payload.(type) {
	case *MsgGetS, *MsgGetM, *MsgPutS, *MsgPutM:
		h.request(m)
	case *MsgRecallAck:
		h.onRecallAck(p)
	case *MsgInvAck:
		h.onInvAck(p)
	case *MsgUnblock:
		h.onUnblock(p)
	default:
		if h.strict {
			panic(fmt.Sprintf("DirHome %d: unexpected payload %T", h.node, m.Payload))
		}
	}
}

func blockOf(m *network.Message) mem.BlockAddr {
	switch p := m.Payload.(type) {
	case *MsgGetS:
		return p.Block
	case *MsgGetM:
		return p.Block
	case *MsgPutS:
		return p.Block
	case *MsgPutM:
		return p.Block
	default:
		panic("coherence: blockOf on non-request")
	}
}

// request starts or queues a block transaction.
func (h *DirHome) request(m *network.Message) {
	b := blockOf(m)
	e := h.entry(b)
	if e.busy {
		e.queue = append(e.queue, m)
		h.stats.QueuedConflicts++
		return
	}
	w := h.waits.Get()
	w.what, w.e, w.m = workStart, e, m
	h.after(dirLatency, w)
}

func (h *DirHome) start(e *dirEntry, m *network.Message) {
	if e.busy {
		// Another request for the block won the race between the busy
		// check and this deferred start; queue behind it.
		e.queue = append(e.queue, m)
		h.stats.QueuedConflicts++
		return
	}
	switch p := m.Payload.(type) {
	case *MsgGetS:
		h.startGetS(e, p)
	case *MsgGetM:
		h.startGetM(e, p)
	case *MsgPutS:
		h.startPutS(e, p)
	case *MsgPutM:
		h.startPutM(e, p)
	default:
		panic(fmt.Sprintf("DirHome %d: queued message with unexpected payload %T", h.node, p))
	}
}

func (h *DirHome) startGetS(e *dirEntry, p *MsgGetS) {
	h.stats.GetS++
	e.begin(txnGetS, p.Requestor)
	if e.owner >= 0 {
		// Owner supplies; it downgrades M→O and keeps ownership.
		h.net.Send(network.Wrap(h.to(e.owner, CtrlBytes), MsgRecall{Block: p.Block, ForGetM: false}))
		return
	}
	h.stats.MemoryReads++
	w := h.waits.Get()
	w.what, w.e, w.block = workGetSData, e, p.Block
	h.after(memLatency, w)
}

func (h *DirHome) startGetM(e *dirEntry, p *MsgGetM) {
	h.stats.GetM++
	t := e.begin(txnGetM, p.Requestor)
	// Invalidate every sharer except the requestor.
	for n := 0; n < h.cfg.Nodes; n++ {
		if e.sharers&(1<<uint(n)) == 0 || network.NodeID(n) == p.Requestor {
			continue
		}
		t.needAcks++
		h.net.Send(network.Wrap(h.to(network.NodeID(n), CtrlBytes), MsgInv{Block: p.Block}))
	}
	switch {
	case e.owner == p.Requestor:
		// Upgrade from Owned: the requestor has current data.
		h.stats.Upgrades++
		t.upgrade = true
		t.haveData = true
	case e.owner >= 0:
		h.net.Send(network.Wrap(h.to(e.owner, CtrlBytes), MsgRecall{Block: p.Block, ForGetM: true}))
	default:
		h.stats.MemoryReads++
		w := h.waits.Get()
		w.what, w.e, w.serial, w.block = workGetMData, e, t.serial, p.Block
		h.after(memLatency, w)
	}
	h.maybeGrant(p.Block, e)
}

// startPutS drops a sharer. It completes on the spot without making the
// entry busy, so when it was popped from the block's queue it must hand
// on to the next queued request itself: no Unblock or memory write will.
func (h *DirHome) startPutS(e *dirEntry, p *MsgPutS) {
	e.sharers &^= 1 << uint(p.Requestor)
	h.net.Send(network.Wrap(h.to(p.Requestor, CtrlBytes), MsgWBAck{Block: p.Block}))
	h.next(p.Block, e)
}

func (h *DirHome) startPutM(e *dirEntry, p *MsgPutM) {
	if e.owner != p.Requestor {
		// Raced with a recall: home already obtained the data. Like a
		// PutS this finishes at once, so the queue moves on from here.
		h.net.Send(network.Wrap(h.to(p.Requestor, CtrlBytes), MsgWBAck{Block: p.Block, Stale: true}))
		h.next(p.Block, e)
		return
	}
	h.stats.Writebacks++
	h.stats.MemoryWrites++
	e.owner = -1
	e.busy = true // hold conflicting requests until memory is written
	w := h.waits.Get()
	w.what, w.e, w.block, w.from, w.data = workPutM, e, p.Block, p.Requestor, p.Data
	h.after(memLatency, w)
}

func (h *DirHome) onRecallAck(p *MsgRecallAck) {
	e := h.entries[p.Block]
	if e == nil || !e.txn.active {
		if h.strict {
			panic(fmt.Sprintf("DirHome %d: RecallAck for %#x without txn", h.node, p.Block))
		}
		return
	}
	e.txn.haveData = true
	e.txn.data = p.Data
	h.maybeGrant(p.Block, e)
}

func (h *DirHome) onInvAck(p *MsgInvAck) {
	e := h.entries[p.Block]
	if e == nil || !e.txn.active {
		if h.strict {
			panic(fmt.Sprintf("DirHome %d: InvAck for %#x without txn", h.node, p.Block))
		}
		return
	}
	// The sharer is gone regardless of transaction outcome.
	e.sharers &^= 1 << uint(p.From)
	e.txn.needAcks--
	h.maybeGrant(p.Block, e)
}

// maybeGrant sends the grant once data and all invalidation acks are in.
func (h *DirHome) maybeGrant(b mem.BlockAddr, e *dirEntry) {
	t := &e.txn
	if !t.active || t.granted || !t.haveData || t.needAcks > 0 {
		return
	}
	t.granted = true
	switch t.kind {
	case txnGetS:
		e.sharers |= 1 << uint(t.requestor)
		h.net.Send(network.Wrap(h.to(t.requestor, DataBytes), MsgData{Block: b, Data: t.data, Exclusive: false}))
	case txnGetM:
		e.sharers = 0
		e.owner = t.requestor
		if t.upgrade {
			h.net.Send(network.Wrap(h.to(t.requestor, CtrlBytes), MsgPermM{Block: b}))
		} else {
			h.net.Send(network.Wrap(h.to(t.requestor, DataBytes), MsgData{Block: b, Data: t.data, Exclusive: true}))
		}
	}
}

func (h *DirHome) onUnblock(p *MsgUnblock) {
	e := h.entries[p.Block]
	if e == nil || !e.txn.active || !e.txn.granted {
		if h.strict {
			panic(fmt.Sprintf("DirHome %d: Unblock for %#x without granted txn", h.node, p.Block))
		}
		return
	}
	e.end()
	h.next(p.Block, e)
}

// next dispatches the oldest queued request for the block, if any.
func (h *DirHome) next(b mem.BlockAddr, e *dirEntry) {
	if e.busy || len(e.queue) == 0 {
		return
	}
	w := h.waits.Get()
	w.what, w.e, w.m = workNext, e, e.queue[0]
	e.queue = e.queue[1:]
	h.after(dirLatency, w)
}

// Reset clears all directory and transient state (SafetyNet recovery).
// Dropping the entries re-arms the new-block hook, which rebuilds the
// MET from the restored memory contents.
func (h *DirHome) Reset() {
	h.dropEntries()
	h.events = h.events.Emptied()
}

// dropEntries empties the table into the free list: only dropped events
// could still name an entry.
func (h *DirHome) dropEntries() {
	for _, e := range h.entries { //dvmc:orderinsensitive an entry is cleared when it is taken, so which block takes which entry changes nothing
		h.free.Put(e)
	}
	clear(h.entries)
}

// OwnerOf returns the directory's view of a block's owner (-1 if memory)
// and sharer mask, for tests and the injection framework.
func (h *DirHome) OwnerOf(b mem.BlockAddr) (network.NodeID, uint64) {
	e, ok := h.entries[b]
	if !ok {
		return -1, 0
	}
	return e.owner, e.sharers
}
