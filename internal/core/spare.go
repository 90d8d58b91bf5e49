package core

import "dvmc/internal/mem"

// Spare is the epoch tables of retired checkers, kept for those of the
// next system its owner builds (DESIGN.md, "Object lifetimes"): each MET
// and CET's block map, whose buckets stay allocated, and its entry slab.
// Lend gives a new node's checkers a retired pair's tables, cleared as
// Reset clears them, so a checker built on a Spare runs exactly as one
// built fresh; Reclaim takes back the tables of retired checkers it lent.
// A Spare has one owner at a time and is not safe for concurrent use; the
// zero value is empty.
type Spare struct {
	mets []metTables
	cets []cetTables
}

type metTables struct {
	met  map[mem.BlockAddr]int32
	slab []metEntry
}

type cetTables struct {
	cet  map[mem.BlockAddr]int32
	slab []cetEntry
	free []int32
}

// Lend gives m and c, either of which may be nil, retired tables if s
// holds any. Call it before the system runs.
func (s *Spare) Lend(m *MemChecker, c *CacheChecker) {
	if m != nil {
		if n := len(s.mets); n > 0 {
			t := s.mets[n-1]
			s.mets[n-1] = metTables{}
			s.mets = s.mets[:n-1]
			clear(t.met)
			m.met, m.slab = t.met, t.slab[:0]
		}
	}
	if c != nil {
		if n := len(s.cets); n > 0 {
			t := s.cets[n-1]
			s.cets[n-1] = cetTables{}
			s.cets = s.cets[:n-1]
			clear(t.cet)
			c.cet, c.slab, c.free = t.cet, t.slab[:0], t.free[:0]
		}
	}
}

// Reclaim takes back the tables of ms and cs, which were lent s. They
// must not run again.
func (s *Spare) Reclaim(ms []*MemChecker, cs []*CacheChecker) {
	for _, m := range ms {
		s.mets = append(s.mets, metTables{m.met, m.slab})
		m.met, m.slab = nil, nil
	}
	for _, c := range cs {
		s.cets = append(s.cets, cetTables{c.cet, c.slab, c.free})
		c.cet, c.slab, c.free = nil, nil, nil
	}
}
