package network

import "dvmc/internal/sim"

// Spare is what retired networks leave for the next system its owner
// builds (DESIGN.md, "Object lifetimes"): the tori and broadcast trees,
// which its constructors re-initialise as the package's build new ones,
// and the transits, cleared when put back. So a network built on a Spare
// runs exactly as one built fresh. A Spare has one owner at a time and is
// not safe for concurrent use; the zero value is empty.
type Spare struct {
	tori     sim.FreeList[Torus]
	trees    sim.FreeList[BroadcastTree]
	transits sim.FreeList[transit]
}

// NewTorus is NewTorus on a kept torus, drawing its transits from s.
func (s *Spare) NewTorus(n int, bytesPerCycle float64, hopLatency sim.Cycle, rng *sim.Rand) *Torus {
	return s.tori.Get().init(n, bytesPerCycle, hopLatency, rng, &s.transits)
}

// NewBroadcastTree is NewBroadcastTree on a kept tree.
func (s *Spare) NewBroadcastTree(n int, bytesPerCycle float64, latency sim.Cycle) *BroadcastTree {
	return s.trees.Get().init(n, bytesPerCycle, latency)
}

// Keep takes back a retired system's torus and tree (nil for none).
func (s *Spare) Keep(t *Torus, b *BroadcastTree) {
	s.tori.Put(t)
	s.trees.PutAll([]*BroadcastTree{b})
}
