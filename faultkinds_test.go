package dvmc

import (
	"math/bits"
	"testing"

	"dvmc/internal/coherence"
	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// TestFlipMessageDataLeavesClone: msg-duplicate and msg-stale-dup deliver
// a Clone beside the sent message, with a body of its own. A bit flip on
// one of them changes that message's data alone — one bit of it — and
// leaves the other's as sent.
func TestFlipMessageDataLeavesClone(t *testing.T) {
	var sent mem.Block
	for i := range sent {
		sent[i] = mem.Word(0x0101010101010101 * uint64(i+1))
	}
	env := network.Message{Src: 1, Dst: 2, Size: coherence.DataBytes, Class: network.ClassCoherence}
	var (
		data      network.Pool[coherence.MsgData]
		putM      network.Pool[coherence.MsgPutM]
		recallAck network.Pool[coherence.MsgRecallAck]
		snoopData network.Pool[coherence.MsgSnoopData]
		snoopWB   network.Pool[coherence.MsgSnoopWB]
	)
	for _, orig := range []*network.Message{
		data.Wrap(env, coherence.MsgData{Block: 7, Data: sent, Exclusive: true}),
		putM.Wrap(env, coherence.MsgPutM{Block: 7, Requestor: 1, Data: sent}),
		recallAck.Wrap(env, coherence.MsgRecallAck{Block: 7, Data: sent, From: 1}),
		snoopData.Wrap(env, coherence.MsgSnoopData{Block: 7, Data: sent}),
		snoopWB.Wrap(env, coherence.MsgSnoopWB{Block: 7, Data: sent, From: 1}),
	} {
		dup := orig.Clone() // the torus's duplicate
		if !flipMessageData(orig, sim.NewRand(3)) {
			t.Fatalf("%T: no data to flip", orig.Payload)
		}
		if got := blockData(t, dup.Payload); got != sent {
			t.Errorf("%T: flipping one message changed its duplicate's data", dup.Payload)
		}
		flipped := blockData(t, orig.Payload)
		diff := 0
		for i := range flipped {
			diff += bits.OnesCount64(uint64(flipped[i] ^ sent[i]))
		}
		if diff != 1 {
			t.Errorf("%T: flipped message differs from the sent data in %d bits, want 1", orig.Payload, diff)
		}
		orig.Release()
		dup.Release()
	}
	for _, err := range []error{data.Balance(), putM.Balance(), recallAck.Balance(), snoopData.Balance(), snoopWB.Balance()} {
		if err != nil {
			t.Error(err)
		}
	}

	ctrl := (*network.Pool[coherence.MsgGetS])(nil).Wrap(network.Message{Size: coherence.CtrlBytes}, coherence.MsgGetS{Block: 7})
	before := *ctrl.Payload.(*coherence.MsgGetS)
	if flipMessageData(ctrl, sim.NewRand(3)) || *ctrl.Payload.(*coherence.MsgGetS) != before {
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
