package proc

import (
	"dvmc/internal/coherence"
	"dvmc/internal/consistency"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// Spare is what retired cores leave for the next system its owner builds
// (DESIGN.md, "Object lifetimes"): the cores with their write buffers,
// which NewCPU re-initialises as the package's NewCPU builds a new one,
// and one free list per record type they take, shared by the system's
// cores, each record cleared when put back. So a core built on a Spare
// runs exactly as one built fresh. A Spare has one owner at a time and is
// not safe for concurrent use; the zero value is empty.
type Spare struct {
	cpus    sim.FreeList[CPU]
	uops    sim.FreeList[uop]
	entries sim.FreeList[oooEntry]
}

// NewCPU is NewCPU on a kept core, drawing its records from s.
func (s *Spare) NewCPU(node network.NodeID, cfg Config, model consistency.Model, ctrl coherence.Controller, prog Program) *CPU {
	return s.cpus.Get().init(node, cfg, model, ctrl, prog, &s.uops, &s.entries)
}

// Keep takes back a retired system's cores.
func (s *Spare) Keep(cs []*CPU) { s.cpus.PutAll(cs) }
