// Package safetynet implements the backward error recovery (BER)
// substrate the paper pairs DVMC with (Sorin et al.'s SafetyNet). DVMC
// only detects errors; recovery rolls the system back to a pre-error
// checkpoint. The package provides:
//
//   - a global checkpoint schedule (periodic, coordinated across nodes),
//   - per-node write logging: old values are logged locally in
//     checkpoint-log buffers; the log-ownership metadata for the first
//     write to a block in each interval crosses the interconnect (the
//     modest SafetyNet traffic visible in the paper's Figures 5 and 7).
//     Logger models that traffic only; the old values themselves are
//     held where they are exact, in mem.Memory's undo log,
//   - checkpoint lifetime management: a checkpoint "expires" after the
//     recovery window; an error is recoverable only while a checkpoint
//     older than the error is still live — which bounds DVMC's allowed
//     detection latency (~100k cycles in the paper's configuration).
//
// The architectural state captured per checkpoint is provided by the
// system assembly through a CaptureFunc; recovery replays it through a
// RestoreFunc, and a ReleaseFunc hears of every checkpoint that stops
// being live. This keeps the package independent of the processor and
// coherence implementations.
package safetynet

import (
	"fmt"

	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// Config parameterises the BER mechanism.
type Config struct {
	// Interval is the cycle distance between coordinated checkpoints.
	Interval sim.Cycle
	// Keep is how many live checkpoints are retained; the recovery window
	// is Keep*Interval.
	Keep int
}

// DefaultConfig matches the paper's ~100k-cycle recovery window.
func DefaultConfig() Config {
	return Config{Interval: 25000, Keep: 4}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Interval < 1 || c.Keep < 1 {
		return fmt.Errorf("safetynet: bad config interval=%d keep=%d", c.Interval, c.Keep)
	}
	return nil
}

// Window returns the recovery window in cycles.
func (c Config) Window() sim.Cycle { return c.Interval * sim.Cycle(c.Keep) }

// Checkpoint is one recovery point.
type Checkpoint struct {
	Seq   uint64
	Cycle sim.Cycle
	State any // opaque architectural state captured by the assembly
}

// CaptureFunc snapshots global architectural state.
type CaptureFunc func(now sim.Cycle) any

// RestoreFunc reinstalls a snapshot.
type RestoreFunc func(state any)

// ReleaseFunc is told that a captured state has left the live set — its
// checkpoint expired, or a recovery to an older one squashed it — and
// will never be restored: the assembly lets go of what it held for it.
type ReleaseFunc func(state any)

// Manager runs the checkpoint schedule.
type Manager struct {
	cfg     Config
	capture CaptureFunc
	restore RestoreFunc
	release ReleaseFunc

	live []Checkpoint
	seq  uint64
	// next is the first interval boundary Tick has not yet looked at; the
	// manager publishes it on slot, its place in the kernel.
	next sim.Cycle
	slot sim.Slot

	// cpAfterRecovery is false between a recovery and the next
	// checkpoint: a second recovery in that window is "nested" — it
	// re-restores the same checkpoint the first recovery used.
	cpAfterRecovery bool

	// logMsgs and logRecs recycle the loggers' write-log messages, which
	// are sent at one node and released (ReleaseLog) at another: the
	// manager's own lists, or its Spare's.
	logMsgs *sim.FreeList[network.Message]
	logRecs *sim.FreeList[LogRecord]

	stats Stats
}

var _ sim.Scheduled = (*Manager)(nil)

// Stats counts BER activity.
type Stats struct {
	CheckpointsTaken uint64
	Recoveries       uint64
	// NestedRecoveries counts recoveries issued before any
	// post-recovery checkpoint was taken: the rollback re-restores the
	// same checkpoint the previous recovery used (recovery-during-
	// recovery, the BER substrate's own fault-tolerance corner).
	NestedRecoveries uint64
	LogMessages      uint64
	LogBytes         uint64
}

// NewManager builds the checkpoint manager.
func NewManager(cfg Config, capture CaptureFunc, restore RestoreFunc) *Manager {
	return new(Manager).init(cfg, capture, restore, new(sim.FreeList[network.Message]), new(sim.FreeList[LogRecord]))
}

// init makes m what NewManager builds, taking write-log messages and
// records from logMsgs and logRecs.
func (m *Manager) init(cfg Config, capture CaptureFunc, restore RestoreFunc, logMsgs *sim.FreeList[network.Message], logRecs *sim.FreeList[LogRecord]) *Manager {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	clear(m.live)
	*m = Manager{cfg: cfg, capture: capture, restore: restore, live: m.live[:0], cpAfterRecovery: true,
		logMsgs: logMsgs, logRecs: logRecs}
	return m
}

// Stats returns BER counters (log traffic is accounted by the loggers).
func (m *Manager) Stats() Stats { return m.stats }

// SetReleaseFunc installs the callback that runs exactly once for every
// checkpoint leaving the live set; nil clears it.
func (m *Manager) SetReleaseFunc(f ReleaseFunc) { m.release = f }

// Tick implements sim.Clockable: takes coordinated checkpoints at the
// multiples of the interval.
func (m *Manager) Tick(now sim.Cycle) {
	if now >= m.next {
		into := now % m.cfg.Interval
		m.next = now - into + m.cfg.Interval
		if into == 0 {
			// A checkpoint copies architectural state; it runs once per
			// interval, never on the idle path.
			m.checkpoint(now)
		}
	}
	m.slot.SleepUntil(m.next)
}

// Attach implements sim.Scheduled.
func (m *Manager) Attach(s sim.Slot) { m.slot = s }

func (m *Manager) checkpoint(now sim.Cycle) {
	m.seq++
	m.stats.CheckpointsTaken++
	m.cpAfterRecovery = true
	cp := Checkpoint{Seq: m.seq, Cycle: now, State: m.capture(now)}
	m.live = append(m.live, cp)
	if len(m.live) > m.cfg.Keep {
		m.leave(0, 1) // oldest checkpoint expires
	}
}

// leave takes live[from:to] out of the live set: each state is released,
// the rest close the gap, and the vacated slots are cleared so the slice's
// backing array pins no state the assembly was told is gone.
func (m *Manager) leave(from, to int) {
	if m.release != nil {
		for _, cp := range m.live[from:to] {
			m.release(cp.State)
		}
	}
	n := from + copy(m.live[from:], m.live[to:])
	clear(m.live[n:])
	m.live = m.live[:n]
}

// Live returns the retained checkpoints, oldest first.
func (m *Manager) Live() []Checkpoint { return append([]Checkpoint(nil), m.live...) }

// LiveCount returns the number of retained checkpoints without copying
// them (telemetry).
func (m *Manager) LiveCount() int { return len(m.live) }

// ValidFor returns the newest live checkpoint taken at or before
// errorCycle — the checkpoint recovery must use. ok=false means the error
// went undetected past the recovery window (all pre-error checkpoints
// expired) and backward recovery is impossible.
func (m *Manager) ValidFor(errorCycle sim.Cycle) (Checkpoint, bool) {
	for i := len(m.live) - 1; i >= 0; i-- {
		if m.live[i].Cycle <= errorCycle {
			return m.live[i], true
		}
	}
	return Checkpoint{}, false
}

// Recover rolls the system back to the newest checkpoint preceding
// errorCycle. It reports whether recovery was possible. Checkpoints after
// the recovery point describe squashed futures: they leave the live set
// before the restore runs, so the restore finds its checkpoint the newest.
func (m *Manager) Recover(errorCycle sim.Cycle) (Checkpoint, bool) {
	cp, ok := m.ValidFor(errorCycle)
	if !ok {
		return Checkpoint{}, false
	}
	m.stats.Recoveries++
	if !m.cpAfterRecovery {
		m.stats.NestedRecoveries++
	}
	m.cpAfterRecovery = false
	newer := len(m.live)
	for newer > 0 && m.live[newer-1].Cycle > cp.Cycle {
		newer--
	}
	m.leave(newer, len(m.live))
	m.restore(cp.State)
	return cp, true
}

// Logger generates SafetyNet's write-logging traffic for one node: the
// first store to a block in each checkpoint interval ships the block's
// old value to its home memory controller. It implements
// coherence.AccessListener semantics via the Access method, so the
// assembly can fan accesses out to both DVMC's CET checker and this
// logger.
type Logger struct {
	node   network.NodeID
	homeOf func(mem.BlockAddr) network.NodeID
	net    network.Network
	mgr    *Manager

	interval sim.Cycle
	next     sim.Cycle // start of the next checkpoint interval, published on slot
	slot     sim.Slot
	logged   map[mem.BlockAddr]bool
}

// logMsgBytes is the wire size of one log record. SafetyNet logs old
// block values *locally* in per-controller checkpoint-log buffers; only
// the log-ownership metadata (block address, checkpoint number) crosses
// the interconnect, which is why the paper reports SafetyNet's traffic
// overhead as modest.
const logMsgBytes = 16

// LogRecord is the payload of a write-log message, carried as a
// *LogRecord. The home controller only accounts it; contents are
// immaterial to the simulation.
type LogRecord struct {
	Block mem.BlockAddr
	From  network.NodeID
}

// NewLogger builds the write logger for one node.
func NewLogger(node network.NodeID, homeOf func(mem.BlockAddr) network.NodeID,
	net network.Network, mgr *Manager) *Logger {
	return new(Logger).init(node, homeOf, net, mgr)
}

// init makes l what NewLogger builds.
func (l *Logger) init(node network.NodeID, homeOf func(mem.BlockAddr) network.NodeID, net network.Network, mgr *Manager) *Logger {
	*l = Logger{node: node, homeOf: homeOf, net: net, mgr: mgr, interval: mgr.cfg.Interval, next: mgr.cfg.Interval,
		logged: sim.Cleared(l.logged)}
	return l
}

var _ sim.Scheduled = (*Logger)(nil)

// Tick implements sim.Clockable: reset the logged set at interval
// boundaries.
func (l *Logger) Tick(now sim.Cycle) {
	if now >= l.next {
		l.next = now - now%l.interval + l.interval
		clear(l.logged)
	}
	l.slot.SleepUntil(l.next)
}

// Attach implements sim.Scheduled.
func (l *Logger) Attach(s sim.Slot) { l.slot = s }

// Access records a cache access; first writes per interval emit log
// traffic.
func (l *Logger) Access(b mem.BlockAddr, write bool) {
	if !write || l.logged[b] {
		return
	}
	l.logged[b] = true
	l.mgr.stats.LogMessages++
	l.mgr.stats.LogBytes += logMsgBytes
	rec := l.mgr.logRecs.Get()
	*rec = LogRecord{Block: b, From: l.node}
	m := l.mgr.logMsgs.Get()
	*m = network.Message{
		Src:     l.node,
		Dst:     l.homeOf(b),
		Size:    logMsgBytes,
		Class:   network.ClassSafetyNet,
		Payload: rec,
	}
	l.net.Send(m)
}

// ReleaseLog takes back a delivered write-log message and its record for
// the loggers to send again; the assembly calls it from the handler the
// message was delivered to. Other messages are left alone.
func (m *Manager) ReleaseLog(msg *network.Message) {
	rec, ok := msg.Payload.(*LogRecord)
	if !ok {
		return
	}
	*rec = LogRecord{}
	m.logRecs.Put(rec)
	*msg = network.Message{}
	m.logMsgs.Put(msg)
}
