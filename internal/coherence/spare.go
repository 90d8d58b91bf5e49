package coherence

import "dvmc/internal/mem"

// Spare is the storage of retired controllers and homes, kept for those
// of the next system its owner builds: L2 line and L1 tag chunks,
// directory entry records and directory tables (DESIGN.md, "Object
// lifetimes"). Lend gives a new node's controller and home the spare to
// draw on; each takes from it before the heap and clears what it takes
// (a table is cleared when reclaimed), so a system built on a Spare runs
// exactly as one built fresh. Reclaim
// takes back the storage of retired controllers and homes it lent. A
// Spare has one owner at a time and is not safe for concurrent use; the
// zero value is empty.
type Spare struct {
	lines slabs[line]
	tags  slabs[tag]
	// entries are directory entry records; tables are empty directory
	// maps whose buckets stay allocated.
	entries []*dirEntry
	tables  []map[mem.BlockAddr]*dirEntry
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
// home, of its entries and its table. Call it before the system runs.
func (s *Spare) Lend(c Controller, h Home) {
	cc := coreOf(c)
	cc.l2.spare, cc.l1.spare = &s.lines, &s.tags
	if dh, ok := h.(*DirHome); ok {
		dh.spare = s
		if n := len(s.tables); n > 0 {
			dh.entries = s.tables[n-1]
			s.tables[n-1] = nil
			s.tables = s.tables[:n-1]
		}
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
