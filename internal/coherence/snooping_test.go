package coherence

import (
	"fmt"
	"strings"
	"testing"

	"dvmc/internal/mem"
	"dvmc/internal/network"
)

// TestSnoopHandleDataRefusesUnexpectedPayloads: the data network hands a
// snooping cache only *MsgSnoopData and a snooping home only *MsgSnoopWB.
// Anything else — the other end's payload, another protocol's, or a
// payload by value rather than in its envelope — panics in strict mode
// and is dropped before the input latch otherwise.
func TestSnoopHandleDataRefusesUnexpectedPayloads(t *testing.T) {
	for _, r := range []struct {
		prefix   string // the cache's subtests are unprefixed
		payloads []any
		handle   func(h *harness, m *network.Message) (queued int)
	}{
		{"", []any{&MsgSnoopWB{Block: 3}, MsgSnoopData{Block: 3}, &MsgData{Block: 3}, "not a payload"},
			func(h *harness, m *network.Message) int {
				c := h.ctrl(0)
				c.proto.(*SnoopCache).HandleData(m)
				return c.events.Len()
			}},
		{"home/", []any{&MsgSnoopData{Block: 3}, MsgSnoopWB{Block: 3}, &MsgData{Block: 3}, "not a payload"},
			func(h *harness, m *network.Message) int {
				home := h.homes[0].(*SnoopHome)
				home.HandleData(m)
				return home.events.Len()
			}},
	} {
		for _, payload := range r.payloads {
			for _, strict := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s%T/strict=%v", r.prefix, payload, strict), func(t *testing.T) {
					h := newHarness(t, snooping, 2)
					h.setStrict(strict)
					m := &network.Message{Src: 1, Dst: 0, Size: DataBytes, Class: network.ClassCoherence, Payload: payload}
					queued := 0
					defer func() {
						r := recover()
						switch {
						case strict && r == nil:
							t.Error("strict: no panic")
						case strict && !strings.Contains(fmt.Sprint(r), "unexpected data payload"):
							t.Errorf("strict: panic %q does not name the unexpected payload", r)
						case !strict && r != nil:
							t.Errorf("non-strict: panic %v", r)
						case !strict && queued != 0:
							t.Errorf("non-strict: %d events queued, want the message dropped", queued)
						}
					}()
					queued = r.handle(h, m)
				})
			}
		}
	}
}

func TestSnoopLogicalTimeIsBroadcastOrder(t *testing.T) {
	// Epoch begin logical times must be monotone in broadcast order and
	// equal to the sequence number of the ordering broadcast.
	s := newHarness(t, snooping, 4)
	addr := mem.Addr(0xa000)
	var times []uint64
	for n := range s.cores {
		s.ctrl(n).SetEpochListener(&funcEpochListener{
			begin: func(b mem.BlockAddr, k EpochKind, lt uint64, known bool, d mem.Block) {
				if b == addr.Block() && k == ReadWrite {
					times = append(times, lt)
				}
			},
		})
	}
	for i := 0; i < 6; i++ {
		s.store(t, i%4, addr, mem.Word(i))
	}
	if len(times) == 0 {
		t.Fatal("no RW epochs observed")
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Errorf("RW epoch times not strictly increasing: %v", times)
		}
	}
}

func TestSnoopEpochTimesRespectCausality(t *testing.T) {
	s := newHarness(t, snooping, 4)
	addr := mem.Addr(0xb000)
	b := addr.Block()
	type ev struct {
		node  int
		kind  EpochKind
		begin bool
		lt    uint64
	}
	var evs []ev
	for n := range s.cores {
		n := n
		s.ctrl(n).SetEpochListener(&funcEpochListener{
			begin: func(blk mem.BlockAddr, k EpochKind, lt uint64, known bool, d mem.Block) {
				if blk == b {
					evs = append(evs, ev{n, k, true, lt})
				}
			},
			end: func(blk mem.BlockAddr, k EpochKind, lt uint64, d mem.Block) {
				if blk == b {
					evs = append(evs, ev{n, k, false, lt})
				}
			},
		})
	}
	for i := 0; i < 12; i++ {
		if i%3 == 2 {
			s.load(t, (i+1)%4, addr)
		} else {
			s.store(t, i%4, addr, mem.Word(i))
		}
	}
	// Reconstruct: no RW epoch interval may overlap another epoch
	// interval (strict overlap; shared boundaries are legal).
	type interval struct {
		kind       EpochKind
		begin, end uint64
	}
	open := make(map[int]ev) // per node: the one open epoch for the block
	var intervals []interval
	for _, e := range evs {
		if e.begin {
			if prev, ok := open[e.node]; ok {
				t.Fatalf("node %d: epoch %v begins while %v open", e.node, e.kind, prev.kind)
			}
			open[e.node] = e
			continue
		}
		prev, ok := open[e.node]
		if !ok || prev.kind != e.kind {
			t.Fatalf("node %d: epoch %v ends without matching begin", e.node, e.kind)
		}
		delete(open, e.node)
		intervals = append(intervals, interval{e.kind, prev.lt, e.lt})
	}
	for i, a := range intervals {
		if a.kind != ReadWrite {
			continue
		}
		for j, b := range intervals {
			if i == j {
				continue
			}
			if a.begin < b.end && b.begin < a.end {
				t.Errorf("RW epoch [%d,%d) overlaps %v epoch [%d,%d)", a.begin, a.end, b.kind, b.begin, b.end)
			}
		}
	}
}

func TestSnoopUpgradeFromOwned(t *testing.T) {
	// Node 0 writes (M), node 1 reads (0 downgrades to O), node 0 writes
	// again: 0 upgrades O→M without a data transfer.
	s := newHarness(t, snooping, 2)
	addr := mem.Addr(0xc000)
	s.store(t, 0, addr, 1)
	s.load(t, 1, addr)
	l := s.ctrl(0).l2.peek(addr.Block())
	if l == nil || l.state != Owned {
		t.Fatalf("node 0 state = %v, want O", l)
	}
	s.store(t, 0, addr, 2)
	l = s.ctrl(0).l2.peek(addr.Block())
	if l == nil || l.state != Modified {
		t.Fatalf("node 0 state after upgrade = %v, want M", l)
	}
	if got := s.load(t, 1, addr); got != 2 {
		t.Errorf("node 1 sees %d, want 2", got)
	}
}

func TestSnoopHomeTracksOwnership(t *testing.T) {
	s := newHarness(t, snooping, 4)
	addr := mem.Addr(0xd000)
	b := addr.Block()
	home := s.snoopHomes[s.cfg.HomeOf(b)]
	s.store(t, 2, addr, 5)
	s.k.Run(100)
	if got := home.OwnerOf(b); got != 2 {
		t.Errorf("owner = %d, want 2", got)
	}
	s.load(t, 1, addr) // GetS: ownership unchanged
	s.k.Run(100)
	if got := home.OwnerOf(b); got != 2 {
		t.Errorf("owner after GetS = %d, want 2", got)
	}
	s.store(t, 3, addr, 6)
	s.k.Run(100)
	if got := home.OwnerOf(b); got != 3 {
		t.Errorf("owner after GetM = %d, want 3", got)
	}
}

func TestSnoopContendedStoresAllDistinctEpochTimes(t *testing.T) {
	// Heavy same-block store contention: every RW epoch gets a distinct
	// logical time (broadcast order is total).
	s := newHarness(t, snooping, 8)
	addr := mem.Addr(0xe000)
	seen := make(map[uint64]bool)
	dup := false
	for n := range s.cores {
		s.ctrl(n).SetEpochListener(&funcEpochListener{
			begin: func(b mem.BlockAddr, k EpochKind, lt uint64, known bool, d mem.Block) {
				if b == addr.Block() && k == ReadWrite {
					if seen[lt] {
						dup = true
					}
					seen[lt] = true
				}
			},
		})
	}
	pending := 0
	for i := 0; i < 40; i++ {
		pending++
		s.ctrl(i%8).Store(addr, mem.Word(i), func() { pending-- })
	}
	s.run(t, func() bool { return pending == 0 }, 2000000)
	if dup {
		t.Error("duplicate RW epoch logical times under contention")
	}
}
