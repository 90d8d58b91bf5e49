package coherence

import (
	"testing"

	"dvmc/internal/mem"
	"dvmc/internal/network"
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
