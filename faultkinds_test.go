package dvmc

import (
	"math/bits"
	"testing"

	"dvmc/internal/coherence"
	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// TestFlipMessageDataCopiesSharedBody: msg-duplicate and msg-stale-dup
// copy an envelope, so two envelopes share one payload body. A bit flip
// on one of them must change that envelope's data alone — one bit of it
// — and leave the other's as sent.
func TestFlipMessageDataCopiesSharedBody(t *testing.T) {
	var sent mem.Block
	for i := range sent {
		sent[i] = mem.Word(0x0101010101010101 * uint64(i+1))
	}
	env := network.Message{Src: 1, Dst: 2, Size: coherence.DataBytes, Class: network.ClassCoherence}
	for _, orig := range []*network.Message{
		network.Wrap(env, coherence.MsgData{Block: 7, Data: sent, Exclusive: true}),
		network.Wrap(env, coherence.MsgPutM{Block: 7, Requestor: 1, Data: sent}),
		network.Wrap(env, coherence.MsgRecallAck{Block: 7, Data: sent, From: 1}),
		network.Wrap(env, coherence.MsgSnoopData{Block: 7, Data: sent}),
		network.Wrap(env, coherence.MsgSnoopWB{Block: 7, Data: sent, From: 1}),
	} {
		dup := *orig // the torus's duplicate: a second envelope, the same body
		if !flipMessageData(orig, sim.NewRand(3)) {
			t.Fatalf("%T: no data to flip", orig.Payload)
		}
		if got := blockData(t, dup.Payload); got != sent {
			t.Errorf("%T: flipping one envelope changed the duplicate's data", dup.Payload)
		}
		flipped := blockData(t, orig.Payload)
		diff := 0
		for i := range flipped {
			diff += bits.OnesCount64(uint64(flipped[i] ^ sent[i]))
		}
		if diff != 1 {
			t.Errorf("%T: flipped envelope differs from the sent data in %d bits, want 1", orig.Payload, diff)
		}
	}

	ctrl := network.Wrap(network.Message{Size: coherence.CtrlBytes}, coherence.MsgGetS{Block: 7})
	before := ctrl.Payload
	if flipMessageData(ctrl, sim.NewRand(3)) || ctrl.Payload != before {
		t.Error("a control message was flipped")
	}
}

// blockData returns the block a data-bearing coherence payload carries.
func blockData(t *testing.T, payload any) mem.Block {
	t.Helper()
	switch p := payload.(type) {
	case *coherence.MsgData:
		return p.Data
	case *coherence.MsgPutM:
		return p.Data
	case *coherence.MsgRecallAck:
		return p.Data
	case *coherence.MsgSnoopData:
		return p.Data
	case *coherence.MsgSnoopWB:
		return p.Data
	default:
		t.Fatalf("%T carries no block", payload)
		return mem.Block{}
	}
}
