package network

import (
	"math"

	"dvmc/internal/sim"
)

// BroadcastTree is the totally ordered address network of the snooping
// system (paper Table 6: "bcast tree, 2.5 GB/s links, ordered"). A central
// arbiter serialises requests; every node observes every request in the
// same total order. The sequence number of a delivered broadcast doubles
// as the snooping system's logical time base ("the number of cache
// coherence requests that it has processed thus far").
type BroadcastTree struct {
	bw        float64
	latency   sim.Cycle // root-to-leaf propagation
	handlers  []Handler
	queue     []*Message
	busyUntil sim.Cycle
	inFlight  *Message
	deliverAt sim.Cycle
	seq       uint64
	observer  Observer
	stat      LinkStat

	// slot is the tree's place in the kernel: it is due while anything
	// is queued or in flight, and reports its Ticks as the root link's
	// observation time.
	slot sim.Slot
	// advance are the slots of the components whose logical clock is
	// Sequence: each delivery wakes them (WakeOnAdvance).
	advance []sim.Slot
}

var _ sim.Scheduled = (*BroadcastTree)(nil)

// NewBroadcastTree builds the ordered address network for n nodes. The
// tree draws nothing at random: its *sim.Rand argument is not read.
func NewBroadcastTree(n int, bytesPerCycle float64, latency sim.Cycle, _ *sim.Rand) *BroadcastTree {
	return new(BroadcastTree).init(n, bytesPerCycle, latency)
}

// init makes b what NewBroadcastTree builds.
func (b *BroadcastTree) init(n int, bytesPerCycle float64, latency sim.Cycle) *BroadcastTree {
	if n < 1 {
		panic("network: broadcast tree needs at least one node")
	}
	if bytesPerCycle <= 0 {
		panic("network: non-positive link bandwidth")
	}
	if len(b.handlers) != n {
		// Each node's two coherence checkers run on the sequence clock.
		b.handlers, b.advance = make([]Handler, n), make([]sim.Slot, 0, 2*n)
	}
	b.Reset() // releases what the last life left in flight
	clear(b.handlers)
	clear(b.advance)
	*b = BroadcastTree{bw: bytesPerCycle, latency: latency, stat: LinkStat{Name: "bcast-root"},
		handlers: b.handlers, queue: b.queue[:0], advance: b.advance[:0]}
	return b
}

// Attach implements sim.Scheduled.
func (b *BroadcastTree) Attach(s sim.Slot) { b.slot = s }

// WakeOnAdvance makes every delivery, the only event that advances
// Sequence, wake the component at s.
func (b *BroadcastTree) WakeOnAdvance(s sim.Slot) { b.advance = append(b.advance, s) }

// SetHandler installs the snoop callback for a node. Every node, including
// the sender, observes every broadcast.
func (b *BroadcastTree) SetHandler(n NodeID, h Handler) { b.handlers[n] = h }

// SetObserver installs a delivery observer; nil clears it. The observer
// fires once per delivered broadcast, before the snoop handlers run.
func (b *BroadcastTree) SetObserver(o Observer) { b.observer = o }

// Sequence returns the number of broadcasts delivered so far — the
// snooping logical time base.
func (b *BroadcastTree) Sequence() uint64 { return b.seq }

// Send enqueues a broadcast. Order of delivery equals order of Send calls
// (arbitration is FIFO).
func (b *BroadcastTree) Send(m *Message) {
	b.slot.Wake()
	b.queue = append(b.queue, m)
}

// Tick implements sim.Clockable: arbitrates one broadcast at a time,
// delivering to all nodes after the serialisation plus tree latency.
func (b *BroadcastTree) Tick(now sim.Cycle) {
	if b.inFlight != nil {
		if now >= b.deliverAt {
			m := b.inFlight
			b.inFlight = nil
			b.seq++
			for _, s := range b.advance {
				s.Wake()
			}
			if b.observer != nil {
				b.observer(m, now)
			}
			for _, h := range b.handlers {
				if h != nil {
					h(m)
				}
			}
			// The snoop handlers copy what they keep of a broadcast.
			m.Release()
		}
	}
	if b.inFlight == nil && now >= b.busyUntil && len(b.queue) > 0 {
		m := b.queue[0]
		copy(b.queue, b.queue[1:])
		b.queue = b.queue[:len(b.queue)-1]
		ser := sim.Cycle(math.Ceil(float64(m.Size) / b.bw))
		if ser < 1 {
			ser = 1
		}
		b.inFlight = m
		b.busyUntil = now + ser
		b.deliverAt = now + ser + b.latency
		b.stat.Bytes += uint64(m.Size)
		if m.Class != 0 && int(m.Class) < int(numClasses) {
			b.stat.ByClass[m.Class] += uint64(m.Size)
		}
	}
	switch {
	case b.inFlight != nil:
		b.slot.SleepUntil(b.deliverAt)
	case len(b.queue) > 0:
		b.slot.SleepUntil(b.busyUntil)
	default:
		b.slot.SleepUntil(sim.Never)
	}
}

// Quiet reports whether the tree holds no broadcast: none queued or in
// flight.
func (b *BroadcastTree) Quiet() bool { return len(b.queue) == 0 && b.inFlight == nil }

// LinkStats returns the root link's utilisation (the tree's bottleneck);
// one link, so its observation time is the tick count.
func (b *BroadcastTree) LinkStats() []LinkStat {
	s := b.stat
	s.Observed = sim.Cycle(b.slot.Ticks())
	return []LinkStat{s}
}

// ClassBytes returns the bytes carried for one traffic class on the
// broadcast root link, without allocating.
func (b *BroadcastTree) ClassBytes(c Class) uint64 { return b.stat.ClassBytes(c) }

// TotalBytes returns the total bytes carried on the broadcast root
// link, without allocating.
func (b *BroadcastTree) TotalBytes() uint64 { return b.stat.Bytes }

// Reset drops and releases queued and in-flight broadcasts (SafetyNet
// recovery). The sequence counter keeps advancing: logical time is
// monotonic across recoveries.
func (b *BroadcastTree) Reset() {
	for i, m := range b.queue {
		m.Release()
		b.queue[i] = nil
	}
	b.queue = b.queue[:0]
	b.inFlight.Release()
	b.inFlight = nil
	b.busyUntil = 0
}
