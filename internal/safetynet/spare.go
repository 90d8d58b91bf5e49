package safetynet

import (
	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// Spare is what a retired system's SafetyNet leaves for the next system
// its owner builds (DESIGN.md, "Object lifetimes"): the manager and
// loggers, which its constructors re-initialise as the package's build
// new ones, and the write-log messages, cleared when released. A Spare
// has one owner at a time; the zero value is empty.
type Spare struct {
	managers sim.FreeList[Manager]
	loggers  sim.FreeList[Logger]
	logs     network.Pool[LogRecord]
}

// NewManager is NewManager on a kept manager, drawing its write-log
// messages from s.
func (s *Spare) NewManager(cfg Config, capture CaptureFunc, restore RestoreFunc) *Manager {
	return s.managers.Get().init(cfg, capture, restore, &s.logs)
}

// Balance reports an error unless every write-log message s handed out
// is back exactly once (network.Pool.Balance).
func (s *Spare) Balance() error { return s.logs.Balance() }

// NewLogger is NewLogger on a kept logger.
func (s *Spare) NewLogger(node network.NodeID, homeOf func(mem.BlockAddr) network.NodeID, net network.Network, mgr *Manager) *Logger {
	return s.loggers.Get().init(node, homeOf, net, mgr)
}

// Keep takes back a retired system's manager and loggers (nil and none
// without SafetyNet).
func (s *Spare) Keep(m *Manager, ls []*Logger) {
	s.managers.PutAll([]*Manager{m})
	s.loggers.PutAll(ls)
}
