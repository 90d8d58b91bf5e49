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
// A payload is immutable once sent. Envelopes are copied freely (a
// duplicate or a stale replay is a second envelope with the same Payload),
// and receivers may keep a payload they were handed, so a body may be
// shared by several envelopes and outlive its delivery. Whatever must
// change one message's payload — a fault hook's bit flip — replaces
// Payload with a changed copy and never writes through the shared body.
type Message struct {
	Src, Dst NodeID
	Size     int // bytes on the wire
	Class    Class
	Payload  any
}

// Wrap returns m carrying body as its payload, built as one heap object:
// the envelope and the body share an allocation, and Payload holds a *P
// pointing at the body inside it (a pointer in an interface boxes nothing
// more). m's own Payload is replaced.
func Wrap[P any](m Message, body P) *Message {
	w := &struct {
		Message
		body P
	}{m, body}
	w.Payload = &w.body
	return &w.Message
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
