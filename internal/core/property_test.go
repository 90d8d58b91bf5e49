package core

import (
	"testing"
	"testing/quick"

	"dvmc/internal/coherence"
	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// genLegalSchedule builds a random but legal epoch history for one block:
// alternating exclusive (RW) and shared (RO-set) phases with correct data
// propagation, as a coherent system would produce it.
type epochRec struct {
	node       network.NodeID
	kind       coherence.EpochKind
	begin, end uint64
	beginData  mem.Word
	endData    mem.Word
}

func legalSchedule(choices []uint8) []epochRec {
	var out []epochRec
	t := uint64(100)
	data := mem.Word(0) // block word 0 value; MET initial hash is of zero data
	for _, c := range choices {
		if c%2 == 0 {
			// Exclusive phase: one RW epoch that may write.
			node := network.NodeID(c % 4)
			begin := t
			t += uint64(c%7) + 1
			newData := data
			if c%3 == 0 {
				newData = mem.Word(c) + 1000*mem.Word(t)
			}
			out = append(out, epochRec{node: node, kind: coherence.ReadWrite,
				begin: begin, end: t, beginData: data, endData: newData})
			data = newData
			t++
		} else {
			// Shared phase: up to 3 overlapping RO epochs.
			n := int(c%3) + 1
			base := t
			var maxEnd uint64
			for i := 0; i < n; i++ {
				begin := base + uint64(i)
				end := begin + uint64(c%5) + 1
				if end > maxEnd {
					maxEnd = end
				}
				out = append(out, epochRec{node: network.NodeID(i), kind: coherence.ReadOnly,
					begin: begin, end: end, beginData: data, endData: data})
			}
			t = maxEnd + 1
		}
	}
	return out
}

// TestMETAcceptsLegalSchedules: any well-formed epoch history passes.
func TestMETAcceptsLegalSchedules(t *testing.T) {
	f := func(choices []uint8) bool {
		recs := legalSchedule(choices)
		clock := &manualClock{t: 90}
		sink := &CollectorSink{}
		met := NewMemChecker(0, testCfg(), clock, zeroCycle, sink)
		b := mem.BlockAddr(0x80)
		met.BlockRequested(b, blockData(0))
		for _, r := range recs {
			met.Handle(&network.Message{Payload: &InformEpoch{
				Block: b, Kind: r.kind,
				Begin: Wrap(r.begin), End: Wrap(r.end),
				BeginHash: BlockHash(blockData(r.beginData)),
				EndHash:   BlockHash(blockData(r.endData)),
				From:      r.node,
			}})
			if r.end > clock.t {
				clock.t = r.end
			}
		}
		tickPast(t, met, clock, clock.t+100000)
		return sink.Count() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestMETRejectsInjectedOverlap: puncture a legal schedule with one RW
// epoch overlapping an existing one; the MET must flag it.
func TestMETRejectsInjectedOverlap(t *testing.T) {
	f := func(choices []uint8, pick uint8) bool {
		recs := legalSchedule(choices)
		if len(recs) == 0 {
			return true
		}
		victim := recs[int(pick)%len(recs)]
		if victim.end-victim.begin < 1 {
			return true
		}
		clock := &manualClock{t: 90}
		sink := &CollectorSink{}
		met := NewMemChecker(0, testCfg(), clock, zeroCycle, sink)
		b := mem.BlockAddr(0x80)
		met.BlockRequested(b, blockData(0))
		send := func(r epochRec) {
			met.Handle(&network.Message{Payload: &InformEpoch{
				Block: b, Kind: r.kind,
				Begin: Wrap(r.begin), End: Wrap(r.end),
				BeginHash: BlockHash(blockData(r.beginData)),
				EndHash:   BlockHash(blockData(r.endData)),
				From:      r.node,
			}})
		}
		for _, r := range recs {
			send(r)
			if r.end > clock.t {
				clock.t = r.end
			}
		}
		// The intruder: an RW epoch strictly inside the victim's span
		// from a different node.
		intruder := epochRec{
			node: victim.node + 1, kind: coherence.ReadWrite,
			begin: victim.begin, end: victim.end,
			beginData: victim.beginData, endData: victim.endData,
		}
		send(intruder)
		tickPast(t, met, clock, clock.t+100000)
		return sink.Count() != 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestMETRejectsDataBreaks: corrupt one epoch's begin hash; the chain
// must break.
func TestMETRejectsDataBreaks(t *testing.T) {
	f := func(choices []uint8, pick uint8) bool {
		recs := legalSchedule(choices)
		if len(recs) == 0 {
			return true
		}
		clock := &manualClock{t: 90}
		sink := &CollectorSink{}
		met := NewMemChecker(0, testCfg(), clock, zeroCycle, sink)
		b := mem.BlockAddr(0x80)
		met.BlockRequested(b, blockData(0))
		corrupt := int(pick) % len(recs)
		for i, r := range recs {
			beginData := r.beginData
			if i == corrupt {
				beginData ^= 0xdead
			}
			met.Handle(&network.Message{Payload: &InformEpoch{
				Block: b, Kind: r.kind,
				Begin: Wrap(r.begin), End: Wrap(r.end),
				BeginHash: BlockHash(blockData(beginData)),
				EndHash:   BlockHash(blockData(r.endData)),
				From:      r.node,
			}})
			if r.end > clock.t {
				clock.t = r.end
			}
		}
		tickPast(t, met, clock, clock.t+100000)
		for _, v := range sink.Violations {
			if v.Kind == DataPropagation {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func zeroCycle() sim.Cycle { return 0 }
