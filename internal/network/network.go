// Package network models the multiprocessor interconnect: an unordered 2D
// torus for data, coherence, and verification traffic (paper Table 6), and
// a totally ordered broadcast tree used as the address network of the
// snooping system. Links have finite bandwidth; per-link byte accounting
// feeds the paper's Figure 7 (bandwidth on the highest-loaded link) and
// Figure 8 (sensitivity to link bandwidth).
//
// The torus also hosts the message-level fault hook used by the
// error-detection experiments of Section 6.1: dropped, reordered,
// mis-routed, and duplicated messages, and payload bit flips.
package network

import (
	"fmt"

	"dvmc/internal/sim"
)

// NodeID identifies a network endpoint. Each node hosts a processor, its
// caches, and a slice of the distributed memory/directory controller.
type NodeID int

// Class categorises traffic for the bandwidth-breakdown experiments
// (paper Figure 7 distinguishes base coherence traffic, SafetyNet
// checkpointing traffic, and DVMC inform traffic).
type Class uint8

// Traffic classes.
const (
	ClassCoherence Class = iota + 1 // protocol requests and data
	ClassInform                     // DVMC Inform-Epoch verification traffic
	ClassSafetyNet                  // BER checkpoint/log traffic
	ClassReplay                     // coherence transactions initiated by load replay
	numClasses
)

// Classes lists the traffic classes in declaration order, the order
// reports print them in.
var Classes = [...]Class{ClassCoherence, ClassInform, ClassSafetyNet, ClassReplay}

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassCoherence:
		return "coherence"
	case ClassInform:
		return "inform"
	case ClassSafetyNet:
		return "safetynet"
	case ClassReplay:
		return "replay"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Message is the unit of transfer. Payload carries a protocol-defined
// struct; the network treats it opaquely except for fault injection.
//
// A message has one holder at a time (DESIGN.md, "Object lifetimes"). Its
// sender takes it from a Pool of its payload type, whose record holds the
// envelope and the body together; the network holds it while it is in
// flight and hands it to the destination's handler. Its last holder — the
// component that consumed it, or the network that dropped it — calls
// Release exactly once, which zeroes it and returns it to the Pool it came
// from, so a late reader finds a nil Payload. Whoever must keep something
// of a message copies it out first. A body therefore belongs to one
// envelope: a duplicate is a Clone with a body of its own, and a fault
// hook's bit flip writes the body in place. A Message built as a literal
// comes from no pool, and Release leaves it alone.
type Message struct {
	Src, Dst NodeID
	Size     int // bytes on the wire
	Class    Class
	Payload  any

	// rec is the pool record holding the message, nil for a literal.
	rec record
}

// record is a Pool's record seen from the message it holds.
type record interface {
	release()
	clone() *Message
}

// Release returns m, zeroed, to the pool it came from: its last holder
// calls it once, and nothing may read m after. Nil-safe, and a no-op for
// a message that came from no pool. Releasing a message twice panics
// while it is still idle.
func (m *Message) Release() {
	if m != nil && m.rec != nil {
		m.rec.release()
	}
}

// Clone returns a copy of m with a body of its own, taken from m's pool:
// a duplicate the network delivers beside m. A literal's copy shares its
// Payload.
func (m *Message) Clone() *Message {
	if m.rec == nil {
		dup := *m
		return &dup
	}
	return m.rec.clone()
}

// Pool is the free list of the messages that carry a P. A message and its
// body are one record, which binds the pool when it is first made, so a
// message goes back to the pool it came from whoever releases it, also
// when the components of a test each take from their own. The zero value
// is an empty pool; a nil *Pool hands out messages from no pool. A Pool
// has one owner at a time and is not safe for concurrent use.
type Pool[P any] struct {
	free sim.FreeList[pooled[P]]
	out  int // handed out and not yet released
}

// pooled is a Pool's record: the envelope, its body, and the pool.
type pooled[P any] struct {
	Message
	body P
	pool *Pool[P]
}

// Wrap returns a message with env's envelope carrying body, taken from p:
// Payload is a *P pointing at the body inside the record (a pointer in an
// interface boxes nothing more). env's Payload is replaced.
func (p *Pool[P]) Wrap(env Message, body P) *Message {
	var r *pooled[P]
	env.rec = nil
	if p == nil {
		r = new(pooled[P])
	} else {
		r = p.free.Get()
		if r.pool == nil {
			r.pool = p
		}
		p.out++
		env.rec = r
	}
	r.body = body
	env.Payload = &r.body
	r.Message = env
	return &r.Message
}

func (r *pooled[P]) release() {
	if r.Payload == nil {
		panic(fmt.Sprintf("network: %T message released twice", r.body))
	}
	p := r.pool
	*r = pooled[P]{Message: Message{rec: r}, pool: p}
	p.out--
	p.free.Put(r)
}

func (r *pooled[P]) clone() *Message { return r.pool.Wrap(r.Message, r.body) }

// Balance reports an error unless every message p handed out is back
// exactly once: none is out, and no record is idle twice.
func (p *Pool[P]) Balance() error {
	idle := p.free.Idle()
	seen := make(map[*pooled[P]]bool, len(idle))
	for _, r := range idle {
		if seen[r] {
			return fmt.Errorf("network: a %T message is idle twice", r.body)
		}
		seen[r] = true
	}
	if p.out != 0 {
		var body P
		return fmt.Errorf("network: %d %T messages handed out and not released", p.out, body)
	}
	return nil
}

// Handler consumes messages delivered at a node.
type Handler func(*Message)

// Observer watches message deliveries without consuming them: it fires
// immediately before the destination handler, stamped with the delivery
// cycle. The span recorder uses it to attach protocol hops to their
// transaction spans. Observers must not mutate the message.
type Observer func(m *Message, at sim.Cycle)

// Network is what the coherence protocols and DVMC checkers use of the
// point-to-point interconnect: they only send. Delivery handlers, link
// statistics and the fault hook are methods of the concrete *Torus,
// which the assembling System holds.
type Network interface {
	// Send enqueues a message for delivery. Delivery is asynchronous and,
	// for the torus, unordered across source-destination pairs.
	Send(m *Message)
}

// LinkStat describes the observed utilisation of one directed link.
type LinkStat struct {
	Name     string
	Bytes    uint64             // total bytes carried
	ByClass  [numClasses]uint64 // bytes per traffic class
	Observed sim.Cycle          // cycles of observation
}

// MeanBandwidth returns the mean bytes/cycle carried by the link.
func (s LinkStat) MeanBandwidth() float64 {
	if s.Observed == 0 {
		return 0
	}
	return float64(s.Bytes) / float64(s.Observed)
}

// ClassBytes returns bytes carried for the given class.
func (s LinkStat) ClassBytes(c Class) uint64 {
	if c == 0 || int(c) >= int(numClasses) {
		return 0
	}
	return s.ByClass[c]
}

// MaxLink returns the LinkStat with the highest mean bandwidth — the
// paper's "mean bandwidth on the highest loaded link" (Figure 7).
func MaxLink(stats []LinkStat) LinkStat {
	var best LinkStat
	for _, s := range stats {
		if s.MeanBandwidth() > best.MeanBandwidth() {
			best = s
		}
	}
	return best
}

// FaultAction tells the network what to do with a message at send time.
type FaultAction uint8

// Fault actions for message-level error injection (paper Section 6.1).
const (
	FaultNone      FaultAction = iota // deliver normally
	FaultDrop                         // lose the message
	FaultDuplicate                    // deliver twice
	FaultMisroute                     // deliver to the wrong node
	FaultCorrupt                      // payload bit flip (hook mutates payload)
	FaultDelay                        // hold back for the fault window so later traffic overtakes it (reorder)
	FaultDupStale                     // deliver normally plus a stale replay after the fault window
	FaultHold                         // capture into a burst released in reverse order (bounded reorder)
)

// FaultHook inspects an outgoing message and picks a fault. The hook may
// mutate the payload for FaultCorrupt. It runs before serialisation so the
// fault affects what travels on the wire.
type FaultHook func(*Message) FaultAction
