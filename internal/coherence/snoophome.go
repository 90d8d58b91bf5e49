package coherence

import (
	"fmt"

	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// SnoopHome is the memory controller of the snooping protocol for the
// blocks homed at one node. It snoops every broadcast (the ordered
// address network delivers to all nodes) and reconstructs ownership from
// the global request order: a GetM makes the requestor owner, a valid
// PutM returns ownership to memory. When no cache owns a block, the home
// supplies data from memory; if a writeback's data is still in flight
// (PutM ordered, MsgSnoopWB not yet arrived), supplies wait for it.
type SnoopHome struct {
	node network.NodeID
	cfg  Config
	data network.Network

	memory *mem.Memory

	queue

	owner     map[mem.BlockAddr]network.NodeID
	pendingWB map[mem.BlockAddr]bool
	deferred  map[mem.BlockAddr][]network.NodeID // supplies awaiting WB data

	// waits recycles the records of work waiting out a latency in events:
	// the home's own list until Spare.Lend points it at the spare's.
	waits *sim.FreeList[snoopWait]

	newBlock func(b mem.BlockAddr, data mem.Block)

	stats  HomeStats
	strict bool
}

var _ Home = (*SnoopHome)(nil)

// NewSnoopHome builds the snooping memory controller for a node.
func NewSnoopHome(node network.NodeID, cfg Config, data network.Network, memory *mem.Memory) *SnoopHome {
	return &SnoopHome{
		node:      node,
		cfg:       cfg,
		data:      data,
		memory:    memory,
		owner:     make(map[mem.BlockAddr]network.NodeID),
		pendingWB: make(map[mem.BlockAddr]bool),
		deferred:  make(map[mem.BlockAddr][]network.NodeID),
		waits:     new(sim.FreeList[snoopWait]),
		strict:    true,
	}
}

// SetStrict toggles panic-on-protocol-anomaly (default true).
func (h *SnoopHome) SetStrict(s bool) { h.strict = s }

// SetNewBlockListener installs the first-request hook (MET entry
// construction; see DirHome.SetNewBlockListener).
func (h *SnoopHome) SetNewBlockListener(fn func(b mem.BlockAddr, data mem.Block)) { h.newBlock = fn }

// Memory returns the home's memory module.
func (h *SnoopHome) Memory() *mem.Memory { return h.memory }

// Stats returns home counters.
func (h *SnoopHome) Stats() HomeStats { return h.stats }

// Reset clears ownership tracking and pending writebacks (SafetyNet
// recovery); the new-block hook re-arms for MET reconstruction.
func (h *SnoopHome) Reset() {
	h.owner = make(map[mem.BlockAddr]network.NodeID)
	h.pendingWB = make(map[mem.BlockAddr]bool)
	h.deferred = make(map[mem.BlockAddr][]network.NodeID)
	h.events = sim.EventQueue{}
}

// ownerOf returns the tracked owner (-1 if memory owns the block).
func (h *SnoopHome) ownerOf(b mem.BlockAddr) network.NodeID {
	if o, ok := h.owner[b]; ok {
		return o
	}
	return -1
}

// OwnerOf exposes the tracked owner for tests and injection.
func (h *SnoopHome) OwnerOf(b mem.BlockAddr) network.NodeID { return h.ownerOf(b) }

// Snoop processes a broadcast for blocks homed at this node.
func (h *SnoopHome) Snoop(m *network.Message) {
	p, ok := m.Payload.(*MsgSnoop)
	if !ok {
		if h.strict {
			panic(fmt.Sprintf("SnoopHome %d: unexpected broadcast %T", h.node, m.Payload))
		}
		return
	}
	if h.cfg.HomeOf(p.Block) != h.node {
		return
	}
	if _, seen := h.owner[p.Block]; !seen && (p.Kind == SnoopGetS || p.Kind == SnoopGetM) {
		h.owner[p.Block] = -1
		if h.newBlock != nil {
			h.newBlock(p.Block, h.memory.ReadBlock(p.Block))
		}
	}
	switch p.Kind {
	case SnoopGetS:
		h.stats.GetS++
		if h.ownerOf(p.Block) == -1 {
			h.supplyFromMemory(p.Block, p.Requestor)
		}
		// An owning cache supplies; ownership is unchanged by GetS.
	case SnoopGetM:
		h.stats.GetM++
		prev := h.ownerOf(p.Block)
		if prev == p.Requestor {
			h.stats.Upgrades++ // O→M upgrade: requestor has the data
		} else if prev == -1 {
			h.supplyFromMemory(p.Block, p.Requestor)
		}
		h.owner[p.Block] = p.Requestor
	case SnoopPutM:
		if h.ownerOf(p.Block) != p.Requestor {
			return // stale writeback; a GetM overtook it
		}
		h.stats.Writebacks++
		h.owner[p.Block] = -1
		h.pendingWB[p.Block] = true
	}
}

// supplyFromMemory ships the block after the DRAM latency, or defers
// until an in-flight writeback lands.
func (h *SnoopHome) supplyFromMemory(b mem.BlockAddr, req network.NodeID) {
	if h.pendingWB[b] {
		h.deferred[b] = append(h.deferred[b], req)
		return
	}
	h.stats.MemoryReads++
	w := h.waits.Get()
	w.what, w.block, w.node = workSupply, b, req
	h.after(memLatency, w)
}

// snoopWait is one piece of work waiting out a latency in the home's
// event queue: writeback data in the input latch, or a block on its way
// to or from DRAM. The queue holds it through step until it runs; it is
// released when its work is done.
type snoopWait struct {
	home *SnoopHome // the home that took it
	step func()     // run, bound once when the record is first made
	what snoopWork
	// block is read (workSupply, for node) or written with data (the
	// writeback of node).
	block mem.BlockAddr
	node  network.NodeID
	data  mem.Block
}

type snoopWork uint8

const (
	workSupply  snoopWork = iota + 1 // DRAM read → data to the requestor
	workWBLatch                      // input latch → onWBData
	workWBWrite                      // DRAM write of the writeback
)

// after schedules w, just taken and filled in by the caller, delay cycles
// from now, as h's.
func (h *SnoopHome) after(delay sim.Cycle, w *snoopWait) {
	if w.step == nil {
		w.step = w.run
	}
	w.home = h
	h.later(delay, w.step)
}

// run does the work the record stood for and releases it.
func (w *snoopWait) run() {
	h := w.home
	h.perform(w)
	*w = snoopWait{step: w.step}
	h.waits.Put(w)
}

func (h *SnoopHome) perform(w *snoopWait) {
	switch w.what {
	case workSupply:
		data := h.memory.ReadBlock(w.block)
		h.data.Send(network.Wrap(network.Message{Src: h.node, Dst: w.node, Size: DataBytes, Class: network.ClassCoherence},
			MsgSnoopData{Block: w.block, Data: data}))
	case workWBLatch:
		h.onWBData(w.block, w.data)
	case workWBWrite:
		h.memory.WriteBlock(w.block, w.data)
		delete(h.pendingWB, w.block)
		reqs := h.deferred[w.block]
		delete(h.deferred, w.block)
		for _, r := range reqs {
			h.supplyFromMemory(w.block, r)
		}
	}
}

// HandleData processes torus messages addressed to the home: writeback
// data.
func (h *SnoopHome) HandleData(m *network.Message) {
	p, ok := m.Payload.(*MsgSnoopWB)
	if !ok {
		if h.strict {
			panic(fmt.Sprintf("SnoopHome %d: unexpected data payload %T", h.node, m.Payload))
		}
		return
	}
	w := h.waits.Get()
	w.what, w.block, w.node, w.data = workWBLatch, p.Block, p.From, p.Data
	h.after(1, w)
}

func (h *SnoopHome) onWBData(b mem.BlockAddr, data mem.Block) {
	if !h.pendingWB[b] {
		if h.strict {
			panic(fmt.Sprintf("SnoopHome %d: writeback data for %#x without pending PutM", h.node, b))
		}
		return
	}
	h.stats.MemoryWrites++
	w := h.waits.Get()
	w.what, w.block, w.data = workWBWrite, b, data
	h.after(memLatency, w)
}
