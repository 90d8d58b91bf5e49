package safetynet

import (
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// Spare is the free lists of a retired manager's write-log messages and
// records, kept for the manager of the next system its owner builds
// (DESIGN.md, "Object lifetimes"). Both are cleared when they are put
// back, so a manager built on a Spare runs exactly as one built fresh. A
// Spare has one owner at a time and is not safe for concurrent use; the
// zero value is empty.
type Spare struct {
	logMsgs sim.FreeList[network.Message]
	logRecs sim.FreeList[LogRecord]
}

// Lend makes s the one source of m's write-log messages and records.
// Call it before the system runs.
func (s *Spare) Lend(m *Manager) { m.logMsgs, m.logRecs = &s.logMsgs, &s.logRecs }
