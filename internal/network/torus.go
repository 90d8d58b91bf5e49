package network

import (
	"fmt"
	"math"

	"dvmc/internal/sim"
)

// Torus is a 2D torus with dimension-order routing and store-and-forward
// links of finite bandwidth, matching the paper's data network ("2D torus,
// 2.5 GB/s links, unordered"). At the simulated 2 GHz clock, 2.5 GB/s is
// 1.25 bytes/cycle, which is the default link bandwidth used by the
// experiment harness.
type Torus struct {
	dimX, dimY int
	bw         float64   // bytes per cycle per link
	hopLatency sim.Cycle // pipeline latency per hop
	// serialized[size] memoizes serialize for the message sizes below its
	// length: 0 until first asked (a message occupies a link at least one
	// cycle).
	serialized [128]sim.Cycle

	links    []*link    // all directed links, fixed order for determinism
	outLinks [][4]*link // per node: +X, -X, +Y, -Y (nil if dimension degenerate)
	handlers []Handler

	// dueAt[i] is the cycle at which links[i] next has something to do:
	// its head's done cycle while it serialises one, 0 with a queue and
	// no head, never while it holds nothing. Tick touches only links
	// whose cycle has come, in link order (delivery order is part of
	// determinism), and none at all before wakeAt, a lower bound on the
	// earliest of them.
	dueAt  []sim.Cycle
	wakeAt sim.Cycle

	// slot is the torus's place in the kernel: it publishes wakeAt there
	// (every cycle while a held, delayed or loopback list is non-empty),
	// stamps sends with its LastTick and reports its Ticks as every
	// link's observation time.
	slot sim.Slot

	// routes caches the dimension-order path for every (src, dst) pair:
	// routing is static, so each path is computed once and shared by all
	// transits (which keep their own hop cursor instead of re-slicing).
	routes [][]*link

	// transits recycles transit envelopes so the steady-state Send path
	// does not allocate: the torus's own list until Spare.Lend points it
	// at the spare's.
	transits *sim.FreeList[transit]

	local   []localDelivery // loopback messages in flight
	delayed []delayedSend   // FaultDelay / FaultDupStale victims
	rng     *sim.Rand

	// faultWindow parameterises the stateful fault actions: how long a
	// FaultDelay victim is held back, the delay before a FaultDupStale
	// replay re-enters the network and the deadline for releasing a
	// FaultHold burst.
	faultWindow sim.Cycle
	held        []*Message // FaultHold burst awaiting reversed release
	heldAt      sim.Cycle  // release deadline for the held burst

	fault    FaultHook
	observer Observer

	// inFlight counts the messages enqueued and not yet delivered, on the
	// links and on the loopback list alike.
	inFlight int
}

var _ Network = (*Torus)(nil)

type localDelivery struct {
	msg *Message
	at  sim.Cycle
}

type delayedSend struct {
	msg *Message
	at  sim.Cycle
}

// transit is a message crossing the torus. path is the full cached
// route (shared, never mutated); hop indexes the link currently being
// traversed.
type transit struct {
	msg      *Message
	path     []*link
	hop      int
	queuedAt sim.Cycle
}

type link struct {
	name  string
	index int // position in Torus.links and Torus.dueAt
	queue []*transit
	head  *transit
	done  sim.Cycle
	stat  LinkStat
}

// NewTorus builds a torus for n nodes with the given link bandwidth in
// bytes/cycle and per-hop latency. Node counts that are not perfect
// rectangles get the most square factorisation (8 -> 4x2, 6 -> 3x2,
// primes -> nx1 ring).
func NewTorus(n int, bytesPerCycle float64, hopLatency sim.Cycle, rng *sim.Rand) *Torus {
	if n < 1 {
		panic("network: torus needs at least one node")
	}
	if bytesPerCycle <= 0 {
		panic("network: non-positive link bandwidth")
	}
	dimX, dimY := factor(n)
	t := &Torus{
		dimX:       dimX,
		dimY:       dimY,
		bw:         bytesPerCycle,
		hopLatency: hopLatency,
		outLinks:   make([][4]*link, n),
		handlers:   make([]Handler, n),
		routes:     make([][]*link, n*n),
		rng:        rng,
		wakeAt:     sim.Never,
		transits:   new(sim.FreeList[transit]),
	}
	addLink := func(node int, dir int, label string) {
		l := &link{name: fmt.Sprintf("n%d%s", node, label), index: len(t.links)}
		t.links = append(t.links, l)
		t.dueAt = append(t.dueAt, sim.Never)
		t.outLinks[node][dir] = l
	}
	for node := 0; node < n; node++ {
		if dimX > 1 {
			addLink(node, 0, "+x")
			if dimX > 2 {
				addLink(node, 1, "-x")
			} else {
				t.outLinks[node][1] = t.outLinks[node][0] // 2-ring: one neighbour
			}
		}
		if dimY > 1 {
			addLink(node, 2, "+y")
			if dimY > 2 {
				addLink(node, 3, "-y")
			} else {
				t.outLinks[node][3] = t.outLinks[node][2]
			}
		}
	}
	return t
}

// factor returns the most square (x, y) with x*y >= n, x >= y, covering n
// nodes (extra coordinates are simply unused when x*y > n; routing only
// ever targets existing nodes, and rings wrap over the full dimension).
func factor(n int) (int, int) {
	best := [2]int{n, 1}
	for y := 1; y*y <= n; y++ {
		if n%y == 0 {
			best = [2]int{n / y, y}
		}
	}
	return best[0], best[1]
}

// SetHandler installs the delivery callback for a node.
func (t *Torus) SetHandler(n NodeID, h Handler) { t.handlers[n] = h }

// SetFaultHook installs a message-fault injector; nil clears it. A
// faultKinds row arms it.
func (t *Torus) SetFaultHook(h FaultHook) { t.fault = h }

// Attach implements sim.Scheduled.
func (t *Torus) Attach(s sim.Slot) { t.slot = s }

// SetObserver installs a delivery observer (nil clears it); it fires
// for every message immediately before the destination handler runs.
func (t *Torus) SetObserver(o Observer) { t.observer = o }

// coord maps a node to its torus coordinates.
func (t *Torus) coord(n NodeID) (int, int) { return int(n) % t.dimX, int(n) / t.dimX }

// node maps coordinates back to a node id.
func (t *Torus) node(x, y int) NodeID { return NodeID(y*t.dimX + x) }

// route returns the dimension-order (X then Y) shortest path, computing
// and caching it on first use. Returned paths are shared: callers must
// not mutate them.
func (t *Torus) route(src, dst NodeID) []*link {
	idx := int(src)*len(t.handlers) + int(dst)
	if p := t.routes[idx]; p != nil {
		return p
	}
	// A route cache miss happens once per (src, dst) pair; the cache covers
	// all pairs after warmup.
	p := t.computeRoute(src, dst)
	t.routes[idx] = p
	return p
}

func (t *Torus) computeRoute(src, dst NodeID) []*link {
	var path []*link
	x, y := t.coord(src)
	dx, dy := t.coord(dst)
	for x != dx {
		dir := 0 // +x
		fwd := (dx - x + t.dimX) % t.dimX
		if fwd > t.dimX-fwd {
			dir = 1 // -x shorter
		}
		path = append(path, t.outLinks[t.node(x, y)][dir])
		if dir == 0 {
			x = (x + 1) % t.dimX
		} else {
			x = (x - 1 + t.dimX) % t.dimX
		}
	}
	for y != dy {
		dir := 2
		fwd := (dy - y + t.dimY) % t.dimY
		if fwd > t.dimY-fwd {
			dir = 3
		}
		path = append(path, t.outLinks[t.node(x, y)][dir])
		if dir == 2 {
			y = (y + 1) % t.dimY
		} else {
			y = (y - 1 + t.dimY) % t.dimY
		}
	}
	return path
}

// Send implements Network. Messages to self are delivered next cycle
// without consuming link bandwidth.
func (t *Torus) Send(m *Message) {
	t.sendAt(m, t.slot.LastTick()+1)
}

func (t *Torus) sendAt(m *Message, when sim.Cycle) {
	if t.fault != nil {
		switch t.fault(m) {
		case FaultDrop:
			return
		case FaultDuplicate:
			dup := *m
			t.enqueue(&dup, when)
		case FaultMisroute:
			m.Dst = NodeID(t.rng.Intn(len(t.handlers)))
		case FaultDelay:
			// Later traffic overtakes the victim while it waits out the
			// fault window.
			t.delayed = append(t.delayed, delayedSend{msg: m, at: when + t.faultWindow})
			t.slot.Wake()
			return
		case FaultDupStale:
			// The original is delivered normally; a byte-identical replay
			// re-enters the network a full fault window later, typically
			// after the transaction it belonged to has completed.
			dup := *m
			t.delayed = append(t.delayed, delayedSend{msg: &dup, at: when + t.faultWindow})
			t.slot.Wake()
		case FaultHold:
			// Capture into the held burst; Tick releases the burst in
			// reverse order once the hook disarms or the window expires,
			// so later traffic on the same links overtakes it.
			t.held = append(t.held, m)
			if len(t.held) == 1 {
				t.heldAt = when + t.faultWindow
			}
			t.slot.Wake()
			return
		case FaultCorrupt, FaultNone:
			// payload already mutated by the hook (corrupt) or untouched
		}
	}
	t.enqueue(m, when)
}

func (t *Torus) enqueue(m *Message, when sim.Cycle) {
	t.inFlight++
	if m.Src == m.Dst {
		// Loopback queue capacity amortizes; entries are compacted in place
		// every Tick.
		t.local = append(t.local, localDelivery{msg: m, at: when})
		t.slot.Wake()
		return
	}
	path := t.route(m.Src, m.Dst)
	tr := t.transits.Get()
	tr.msg, tr.path, tr.queuedAt = m, path, when
	t.queueOn(path[0], tr)
}

// queueOn appends a transit to a link's queue. An idle link is due: it
// starts serialising the transit when Tick next reaches it.
func (t *Torus) queueOn(l *link, tr *transit) {
	// Link queue capacity amortizes to the steady-state occupancy; Tick
	// pops in place.
	l.queue = append(l.queue, tr)
	if l.head == nil {
		t.dueAt[l.index] = 0
		t.wakeAt = 0
		t.slot.Wake()
	}
}

// recycleTransit returns a finished transit envelope to the freelist.
func (t *Torus) recycleTransit(tr *transit) {
	*tr = transit{}
	t.transits.Put(tr)
}

// SetFaultWindow configures the stateful fault actions: how long a
// FaultDelay victim (msg-reorder's delay) or a FaultDupStale replay is
// held back, and the release deadline of a FaultHold burst. The arming
// faultKinds row passes its injection's window, the row's default
// standing in for zero.
func (t *Torus) SetFaultWindow(w sim.Cycle) { t.faultWindow = w }

// serialize returns the cycles a message of size bytes occupies a link.
func (t *Torus) serialize(size int) sim.Cycle {
	if size < 0 || size >= len(t.serialized) {
		return t.serialCycles(size)
	}
	if t.serialized[size] == 0 {
		t.serialized[size] = t.serialCycles(size)
	}
	return t.serialized[size]
}

func (t *Torus) serialCycles(size int) sim.Cycle {
	c := sim.Cycle(math.Ceil(float64(size) / t.bw))
	if c < 1 {
		c = 1
	}
	return c
}

var _ sim.Scheduled = (*Torus)(nil)

// Tick implements sim.Clockable: advances link pipelines, moves messages
// hop to hop, and fires delivery handlers.
func (t *Torus) Tick(now sim.Cycle) {
	t.tick(now)
	if len(t.held)+len(t.delayed)+len(t.local) > 0 {
		t.slot.SleepUntil(now)
	} else {
		t.slot.SleepUntil(t.wakeAt)
	}
}

func (t *Torus) tick(now sim.Cycle) {
	// Release a FaultHold burst in reverse order once the fault hook has
	// disarmed (the burst is complete) or the window expired: the
	// captured messages re-enter the network newest-first, violating the
	// per-link FIFO ordering the protocol otherwise enjoys.
	if len(t.held) > 0 && (t.fault == nil || now >= t.heldAt) {
		for i := len(t.held) - 1; i >= 0; i-- {
			t.enqueue(t.held[i], now)
			t.held[i] = nil
		}
		t.held = t.held[:0]
	}
	// Release FaultDelay victims whose holding period expired. The
	// filters below compact in place (no per-Tick allocation) by index,
	// which also preserves any entries appended while a delivery handler
	// runs: those land past the original length and are copied down.
	if len(t.delayed) > 0 {
		n := len(t.delayed)
		keep := 0
		for i := 0; i < n; i++ {
			d := t.delayed[i]
			if now >= d.at {
				t.enqueue(d.msg, now)
			} else {
				t.delayed[keep] = d
				keep++
			}
		}
		appended := copy(t.delayed[keep:], t.delayed[n:])
		t.delayed = t.delayed[:keep+appended]
	}
	// Local loopback deliveries.
	if len(t.local) > 0 {
		n := len(t.local)
		keep := 0
		for i := 0; i < n; i++ {
			d := t.local[i]
			if now >= d.at {
				t.deliver(d.msg)
			} else {
				t.local[keep] = d
				keep++
			}
		}
		appended := copy(t.local[keep:], t.local[n:])
		t.local = t.local[:keep+appended]
	}
	if now < t.wakeAt {
		return
	}
	// Advance every link whose cycle has come. dueAt is read live: a link
	// that falls due ahead of the walk (a hop forwarded to it, a delivery
	// handler sending into it) is still reached this tick, one behind the
	// walk waits for the next — as when the walk visited every link.
	t.wakeAt = sim.Never
	next := sim.Never
	for li := range t.links {
		if t.dueAt[li] > now {
			next = min(next, t.dueAt[li])
			continue
		}
		l := t.links[li]
		if l.head != nil && now >= l.done {
			tr := l.head
			l.head = nil
			tr.hop++
			if tr.hop == len(tr.path) {
				t.deliver(tr.msg)
				t.recycleTransit(tr)
			} else {
				tr.queuedAt = now
				t.queueOn(tr.path[tr.hop], tr)
			}
		}
		if l.head == nil && len(l.queue) > 0 {
			// Verification and checkpoint-log traffic yields to protocol
			// traffic: the paper observes that "most DVMC related
			// messages are transmitted during idle times between bursts".
			// The deferral is bounded (maxDefer) so informs cannot starve
			// past the MET's begin-order sorting window.
			idx := 0
			if len(l.queue) > 1 {
				head := l.queue[0]
				lowPri := head.msg.Class != ClassCoherence && head.msg.Class != ClassReplay
				if lowPri && now-head.queuedAt <= maxDefer {
					for i, q := range l.queue {
						if q.msg.Class == ClassCoherence || q.msg.Class == ClassReplay {
							idx = i
							break
						}
					}
				}
			}
			tr := l.queue[idx]
			l.queue = append(l.queue[:idx], l.queue[idx+1:]...)
			l.head = tr
			l.done = now + t.serialize(tr.msg.Size) + t.hopLatency
			l.stat.Bytes += uint64(tr.msg.Size)
			if tr.msg.Class != 0 && int(tr.msg.Class) < int(numClasses) {
				l.stat.ByClass[tr.msg.Class] += uint64(tr.msg.Size)
			}
		}
		if l.head != nil {
			t.dueAt[li] = l.done
			next = min(next, l.done)
		} else {
			t.dueAt[li] = sim.Never
		}
	}
	// A send behind the walk has zeroed wakeAt meanwhile.
	t.wakeAt = min(t.wakeAt, next)
}

func (t *Torus) deliver(m *Message) {
	t.inFlight--
	if t.observer != nil {
		t.observer(m, t.slot.LastTick())
	}
	h := t.handlers[m.Dst]
	if h == nil {
		panic(fmt.Sprintf("network: no handler at node %d", m.Dst))
	}
	h(m)
}

// LinkStats returns per-link utilisation for bandwidth analysis.
func (t *Torus) LinkStats() []LinkStat {
	out := make([]LinkStat, 0, len(t.links))
	for _, l := range t.links {
		s := l.stat
		s.Name = l.name
		s.Observed = sim.Cycle(t.slot.Ticks())
		out = append(out, s)
	}
	return out
}

// Quiet reports whether the torus holds no message: none queued or in
// flight on a link or the loopback list, none delayed, none held.
func (t *Torus) Quiet() bool { return t.inFlight+len(t.delayed)+len(t.held) == 0 }

// ClassBytes returns the total bytes carried for one traffic class
// summed over all links. Allocation-free (the telemetry sampler reads
// it every sampling tick).
func (t *Torus) ClassBytes(c Class) uint64 {
	var n uint64
	for _, l := range t.links {
		n += l.stat.ClassBytes(c)
	}
	return n
}

// TotalBytes returns the total bytes carried summed over all links,
// without allocating.
func (t *Torus) TotalBytes() uint64 {
	var n uint64
	for _, l := range t.links {
		n += l.stat.Bytes
	}
	return n
}

// maxDefer bounds how long a low-priority message may be overtaken at
// one link; it keeps total inform delay within the MET's sorting window.
const maxDefer sim.Cycle = 192

// Reset drops every in-flight message (SafetyNet recovery: pre-error
// traffic must not leak into the restored state). Link statistics are
// preserved.
func (t *Torus) Reset() {
	t.inFlight = 0
	t.local = t.local[:0]
	t.delayed = t.delayed[:0]
	for i := range t.held {
		t.held[i] = nil
	}
	t.held = t.held[:0]
	for _, l := range t.links {
		for _, tr := range l.queue {
			t.recycleTransit(tr)
		}
		for i := range l.queue {
			l.queue[i] = nil
		}
		l.queue = l.queue[:0]
		if l.head != nil {
			t.recycleTransit(l.head)
			l.head = nil
		}
	}
	for i := range t.dueAt {
		t.dueAt[i] = sim.Never
	}
}
