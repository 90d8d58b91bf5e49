package core

import (
	"dvmc/internal/coherence"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// Spare is the checkers of retired systems, one list per type, kept for
// those of the next system its owner builds (DESIGN.md, "Object
// lifetimes"). Its constructors re-initialise a kept checker as the
// package's build a new one, its tables emptied, so a checker built on a
// Spare runs exactly as one built fresh. A Spare has one owner at a time
// and is not safe for concurrent use; the zero value is empty.
type Spare struct {
	mets sim.FreeList[MemChecker]
	cets sim.FreeList[CacheChecker]
	uos  sim.FreeList[UniprocChecker]
	ros  sim.FreeList[ReorderChecker]
}

// NewMemChecker is NewMemChecker on a kept MET.
func (s *Spare) NewMemChecker(node network.NodeID, cfg coherence.Config, clock coherence.LogicalClock, cycleNow func() sim.Cycle, sink Sink) *MemChecker {
	return s.mets.Get().init(node, cfg, clock, cycleNow, sink)
}

// NewCacheChecker is NewCacheChecker on a kept CET.
func (s *Spare) NewCacheChecker(node network.NodeID, cfg coherence.Config, net network.Network, clock coherence.LogicalClock, cycleNow func() sim.Cycle, sink Sink) *CacheChecker {
	return s.cets.Get().init(node, cfg, net, clock, cycleNow, sink)
}

// NewUniprocChecker is NewUniprocChecker on a kept checker.
func (s *Spare) NewUniprocChecker(node network.NodeID, capacity int, cacheLoadValues bool, sink Sink) *UniprocChecker {
	return s.uos.Get().init(node, capacity, cacheLoadValues, sink)
}

// NewReorderChecker is NewReorderChecker on a kept checker.
func (s *Spare) NewReorderChecker(node network.NodeID, sink Sink) *ReorderChecker {
	return s.ros.Get().init(node, sink)
}

// Keep takes back a retired system's checkers (nil entries: a node
// without that checker).
func (s *Spare) Keep(ms []*MemChecker, cs []*CacheChecker, us []*UniprocChecker, rs []*ReorderChecker) {
	s.mets.PutAll(ms)
	s.cets.PutAll(cs)
	s.uos.PutAll(us)
	s.ros.PutAll(rs)
}
