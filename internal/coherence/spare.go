package coherence

import (
	"dvmc/internal/mem"
	"dvmc/internal/sim"
)

// Spare is the storage of retired controllers and homes, kept for those
// of the next system its owner builds: L2 line and L1 tag chunks,
// directory entry records and directory tables, and the free lists of
// the records controllers and homes take (DESIGN.md, "Object lifetimes").
// Lend gives a new node's controller and home the spare to draw on; each
// takes from it before the heap and clears what it takes (a table is
// cleared when reclaimed, a record when it is put back), so a system
// built on a Spare runs exactly as one built fresh. Reclaim takes back
// the storage of retired controllers and homes it lent; the records need
// no reclaiming, since every node of the system took and put them back
// here all along. A Spare has one owner at a time and is not safe for
// concurrent use; the zero value is empty.
type Spare struct {
	lines slabs[line]
	tags  slabs[tag]
	// entries are directory entry records; tables are empty directory
	// maps whose buckets stay allocated.
	entries []*dirEntry
	tables  []map[mem.BlockAddr]*dirEntry
	records
}

// records are the free lists of the event records, one per type, of the
// controllers and homes that draw on them: one controller's own (its
// constructor's), or every node's of a system built on a Spare. Whoever
// takes a record binds itself as its owner.
type records struct {
	accesses   sim.FreeList[access]
	inbounds   sim.FreeList[inbound]
	mshrs      sim.FreeList[mshr]
	retries    sim.FreeList[retry]
	dirWaits   sim.FreeList[dirWait]
	snoopWaits sim.FreeList[snoopWait]
}

// slabs are full chunks of one kind of array entry.
type slabs[E any] struct {
	free [][]E
}

// take returns a cleared chunk of n entries, or nil. A chunk of another
// length comes from an array of another geometry: it does not fit, and is
// dropped.
func (p *slabs[E]) take(n int) []E {
	for k := len(p.free); k > 0; k-- {
		e := p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
		if len(e) == n {
			clear(e)
			return e
		}
	}
	return nil
}

// Lend makes s the first source of c's chunks and, if h is a directory
// home, of its entries and its table, and the one source of both's
// records. Call it before the system runs.
func (s *Spare) Lend(c Controller, h Home) {
	cc := coreOf(c)
	cc.l2.spare, cc.l1.spare = &s.lines, &s.tags
	cc.draw(&s.records)
	switch h := h.(type) {
	case *DirHome:
		h.spare = s
		h.waits = &s.dirWaits
		if n := len(s.tables); n > 0 {
			h.entries = s.tables[n-1]
			s.tables[n-1] = nil
			s.tables = s.tables[:n-1]
		}
	case *SnoopHome:
		h.waits = &s.snoopWaits
	}
}

// Reclaim takes back the chunks, entries and tables of cs and hs, node
// i's controller and home at index i, which were lent s. They must not
// run again.
func (s *Spare) Reclaim(cs []Controller, hs []Home) {
	for i, c := range cs {
		cc := coreOf(c)
		cc.l2.release()
		cc.l1.release()
		if dh, ok := hs[i].(*DirHome); ok {
			for _, e := range dh.entries { //dvmc:orderinsensitive a record is zeroed when it is taken, so which block takes which record changes nothing
				s.entries = append(s.entries, e)
			}
			clear(dh.entries)
			s.tables = append(s.tables, dh.entries)
			dh.entries = nil
		}
	}
}

// coreOf is the state c shares with the other protocol's controller.
func coreOf(c Controller) *ctrlCore {
	if dc, ok := c.(*DirCache); ok {
		return &dc.ctrlCore
	}
	return &c.(*SnoopCache).ctrlCore
}

// newEntry is a directory entry for a block memory owns: a record from
// the spare, zeroed, or (also with no spare) a new one.
func (s *Spare) newEntry() *dirEntry {
	if s == nil || len(s.entries) == 0 {
		return &dirEntry{owner: -1}
	}
	n := len(s.entries)
	e := s.entries[n-1]
	s.entries[n-1] = nil
	s.entries = s.entries[:n-1]
	*e = dirEntry{owner: -1}
	return e
}
