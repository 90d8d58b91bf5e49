package network

import "dvmc/internal/sim"

// Spare is what retired networks leave for the next system its owner
// builds (DESIGN.md, "Object lifetimes"): one torus per node count seen
// and the broadcast trees, which its constructors re-initialise as the
// package's build new ones, and the transits, cleared when put back. So a
// network built on a Spare runs exactly as one built fresh. A Spare has
// one owner at a time and is not safe for concurrent use; the zero value
// is empty.
type Spare struct {
	// tori are kept by size: a torus keeps its links and routes for its
	// own node count only, so a system takes only a torus of its size.
	tori     []*Torus
	trees    sim.FreeList[BroadcastTree]
	transits sim.FreeList[transit]
}

// NewTorus is NewTorus on a kept torus of n nodes, drawing its transits
// from s.
func (s *Spare) NewTorus(n int, bytesPerCycle float64, hopLatency sim.Cycle, rng *sim.Rand) *Torus {
	t := new(Torus)
	for i, kept := range s.tori {
		if len(kept.handlers) == n {
			t = kept
			last := len(s.tori) - 1
			s.tori[i], s.tori[last] = s.tori[last], nil
			s.tori = s.tori[:last]
			break
		}
	}
	return t.init(n, bytesPerCycle, hopLatency, rng, &s.transits)
}

// NewBroadcastTree is NewBroadcastTree on a kept tree.
func (s *Spare) NewBroadcastTree(n int, bytesPerCycle float64, latency sim.Cycle) *BroadcastTree {
	return s.trees.Get().init(n, bytesPerCycle, latency)
}

// Keep takes back a retired system's torus and tree (nil for none),
// releasing the messages they still hold.
func (s *Spare) Keep(t *Torus, b *BroadcastTree) {
	t.Reset()
	s.tori = append(s.tori, t)
	if b != nil {
		b.Reset()
		s.trees.Put(b)
	}
}
