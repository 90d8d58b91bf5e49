package network

import "dvmc/internal/sim"

// Spare is the free list of a retired torus's transit envelopes, kept for
// the torus of the next system its owner builds (DESIGN.md, "Object
// lifetimes"). A transit is cleared when it is put back, so a torus built
// on a Spare runs exactly as one built fresh. A Spare has one owner at a
// time and is not safe for concurrent use; the zero value is empty.
type Spare struct {
	transits sim.FreeList[transit]
}

// Lend makes s the one source of t's transits. Call it before the system
// runs.
func (s *Spare) Lend(t *Torus) { t.transits = &s.transits }
