package coherence

import (
	"testing"

	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

func TestDirDirectoryStateMatchesCaches(t *testing.T) {
	s := newHarness(t, directory, 4)
	addr := mem.Addr(0xc000)
	s.store(t, 2, addr, 7)
	s.k.Run(100)
	b := addr.Block()
	home := s.dirHomes[s.cfg.HomeOf(b)]
	owner, sharers := home.OwnerOf(b)
	if owner != 2 {
		t.Errorf("directory owner = %d, want 2", owner)
	}
	if sharers != 0 {
		t.Errorf("directory sharers = %b, want none", sharers)
	}
	s.load(t, 1, addr)
	s.k.Run(100)
	owner, sharers = home.OwnerOf(b)
	if owner != 2 {
		t.Errorf("after GetS: owner = %d, want 2 (MOSI keeps owner)", owner)
	}
	if sharers&(1<<1) == 0 {
		t.Errorf("after GetS: node 1 missing from sharers %b", sharers)
	}
}

func TestDirEpochEventsBalanced(t *testing.T) {
	// Every epoch that begins must end exactly once when the block is
	// invalidated or evicted; pending epochs may remain open at the end.
	s := newHarness(t, directory, 4)
	type key struct {
		node int
		b    mem.BlockAddr
	}
	open := make(map[key]EpochKind)
	for n := range s.cores {
		n := n
		s.ctrl(n).SetEpochListener(&funcEpochListener{
			begin: func(b mem.BlockAddr, k EpochKind, lt uint64, known bool, data mem.Block) {
				if prev, ok := open[key{n, b}]; ok {
					t.Errorf("node %d block %#x: epoch %v begins while %v open", n, b, k, prev)
				}
				open[key{n, b}] = k
			},
			end: func(b mem.BlockAddr, k EpochKind, lt uint64, data mem.Block) {
				prev, ok := open[key{n, b}]
				if !ok {
					t.Errorf("node %d block %#x: epoch %v ends but none open", n, b, k)
				} else if prev != k {
					t.Errorf("node %d block %#x: epoch %v ends but %v open", n, b, k, prev)
				}
				delete(open, key{n, b})
			},
		})
	}
	for i := 0; i < 50; i++ {
		s.store(t, i%4, mem.Addr(i%16)*mem.BlockBytes, mem.Word(i))
		s.load(t, (i+1)%4, mem.Addr(i%16)*mem.BlockBytes)
	}
}

// funcEpochListener adapts closures to EpochListener.
type funcEpochListener struct {
	begin func(mem.BlockAddr, EpochKind, uint64, bool, mem.Block)
	data  func(mem.BlockAddr, mem.Block)
	end   func(mem.BlockAddr, EpochKind, uint64, mem.Block)
}

func (f *funcEpochListener) EpochBegin(b mem.BlockAddr, k EpochKind, lt uint64, known bool, d mem.Block) {
	if f.begin != nil {
		f.begin(b, k, lt, known, d)
	}
}
func (f *funcEpochListener) EpochData(b mem.BlockAddr, d mem.Block) {
	if f.data != nil {
		f.data(b, d)
	}
}
func (f *funcEpochListener) EpochEnd(b mem.BlockAddr, k EpochKind, lt uint64, d mem.Block) {
	if f.end != nil {
		f.end(b, k, lt, d)
	}
}

func TestDirEpochTimesRespectCausality(t *testing.T) {
	// If node A's RW epoch ends because node B requested the block, B's
	// epoch begin ltime must be >= A's end ltime.
	s := newHarness(t, directory, 4)
	addr := mem.Addr(0xe000)
	b := addr.Block()
	var lastEnd uint64
	var beginAfter uint64
	for n := range s.cores {
		s.ctrl(n).SetEpochListener(&funcEpochListener{
			begin: func(blk mem.BlockAddr, k EpochKind, lt uint64, known bool, d mem.Block) {
				if blk == b {
					beginAfter = lt
					if lt < lastEnd {
						t.Errorf("epoch begins at %d before previous end %d", lt, lastEnd)
					}
				}
			},
			end: func(blk mem.BlockAddr, k EpochKind, lt uint64, d mem.Block) {
				if blk == b {
					lastEnd = lt
				}
			},
		})
	}
	for i := 0; i < 10; i++ {
		s.store(t, i%4, addr, mem.Word(i))
	}
	_ = beginAfter
}

func TestDirConfigValidate(t *testing.T) {
	good := testConfig(4)
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{},
		{Nodes: 1},
		{Nodes: 1, L1Sets: 1, L1Ways: 1},
		{Nodes: 1, L1Sets: 1, L1Ways: 1, L2Sets: 1, L2Ways: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestHomeOfInterleaving(t *testing.T) {
	cfg := testConfig(8)
	counts := make(map[network.NodeID]int)
	for b := mem.BlockAddr(0); b < 800; b++ {
		counts[cfg.HomeOf(b)]++
	}
	for n := network.NodeID(0); n < 8; n++ {
		if counts[n] != 100 {
			t.Errorf("home %d owns %d blocks, want 100", n, counts[n])
		}
	}
}

func TestStateAndKindStrings(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Owned.String() != "O" || Modified.String() != "M" {
		t.Error("State strings wrong")
	}
	if ReadOnly.String() != "RO" || ReadWrite.String() != "RW" {
		t.Error("EpochKind strings wrong")
	}
	if Invalid.CanRead() || !Shared.CanRead() || !Owned.CanRead() || !Modified.CanRead() {
		t.Error("CanRead wrong")
	}
	if Shared.CanWrite() || Owned.CanWrite() || !Modified.CanWrite() {
		t.Error("CanWrite wrong")
	}
}

// TestDirHomeQueueSurvivesPutS: a PutS (or stale PutM) popped from a
// block's queue finishes on the spot, so the home must go on to the next
// queued request itself — nothing else will. Drives DirHome.Handle
// directly: node 0's GetM is granted and left un-unblocked while node 1's
// PutS and node 2's GetS queue behind it; once node 0 unblocks, node 2
// must be granted.
func TestDirHomeQueueSurvivesPutS(t *testing.T) {
	for _, tc := range []struct {
		name     string
		finisher any // the queued request that completes without a transaction
	}{
		{"PutS", MsgPutS{Block: 3, Requestor: 1}},
		{"stale PutM", MsgPutM{Block: 3, Requestor: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const b = mem.BlockAddr(3) // homed at node 3 of 4
			cfg := testConfig(4)
			var k sim.Kernel
			tor := network.NewTorus(4, 8.0, 2, sim.NewRand(7))
			home := NewDirHome(3, cfg, tor, mem.NewMemory())
			k.Register(tor)
			k.Register(home)
			got := make([][]any, 4) // payloads delivered per node
			for n := 0; n < 4; n++ {
				tor.SetHandler(network.NodeID(n), func(m *network.Message) {
					got[n] = append(got[n], m.Payload)
					if _, ok := m.Payload.(MsgRecall); ok { // node 0 owns the block by then
						home.Handle(&network.Message{Payload: MsgRecallAck{Block: b, From: network.NodeID(n)}})
					}
				})
			}
			granted := func(n int) bool {
				for _, p := range got[n] {
					if d, ok := p.(MsgData); ok && d.Block == b {
						return true
					}
				}
				return false
			}
			home.Handle(&network.Message{Payload: MsgGetM{Block: b, Requestor: 0}})
			if !k.RunUntil(func() bool { return granted(0) }, 1000) {
				t.Fatal("node 0's GetM never granted")
			}
			home.Handle(&network.Message{Payload: tc.finisher})
			home.Handle(&network.Message{Payload: MsgGetS{Block: b, Requestor: 2}})
			k.Run(50)
			if home.Stats().QueuedConflicts != 2 {
				t.Fatalf("QueuedConflicts = %d, want both requests queued behind the open GetM", home.Stats().QueuedConflicts)
			}
			home.Handle(&network.Message{Payload: MsgUnblock{Block: b, From: 0}})
			if !k.RunUntil(func() bool { return granted(2) }, 5000) {
				t.Fatalf("node 2's GetS stranded in the block's queue after the %s ahead of it completed (node 1 got %v)", tc.name, got[1])
			}
		})
	}
}
