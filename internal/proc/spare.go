package proc

import "dvmc/internal/sim"

// Spare is the free lists of the records cores and their write-combining
// buffers take, one list per record type, kept for the cores of the next
// system its owner builds (DESIGN.md, "Object lifetimes"). Lend points a
// new core at them; every core of the system then takes and puts back
// there, binding itself as the owner of what it takes, and a record is
// cleared when it is put back, so a core built on a Spare runs exactly as
// one built fresh. A Spare has one owner at a time and is not safe for
// concurrent use; the zero value is empty.
type Spare struct {
	uops    sim.FreeList[uop]
	entries sim.FreeList[oooEntry]
}

// Lend makes s the one source of c's micro-ops and, if its write buffer
// combines, of its entries. Call it before the system runs.
func (s *Spare) Lend(c *CPU) {
	c.uops = &s.uops
	if w, ok := c.wb.(*OOOWB); ok {
		w.free = &s.entries
	}
}
