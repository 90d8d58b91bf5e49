package mem

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddrDecomposition(t *testing.T) {
	tests := []struct {
		addr      Addr
		block     BlockAddr
		wordIndex int
	}{
		{0x0, 0, 0},
		{0x8, 0, 1},
		{0x38, 0, 7},
		{0x40, 1, 0},
		{0x1000, 0x40, 0},
		{0x1048, 0x41, 1},
	}
	for _, tt := range tests {
		if got := tt.addr.Block(); got != tt.block {
			t.Errorf("Addr(%#x).Block() = %#x, want %#x", tt.addr, got, tt.block)
		}
		if got := tt.addr.WordIndex(); got != tt.wordIndex {
			t.Errorf("Addr(%#x).WordIndex() = %d, want %d", tt.addr, got, tt.wordIndex)
		}
	}
}

func TestBlockAddrRoundTrip(t *testing.T) {
	f := func(b uint32, i uint8) bool {
		ba := BlockAddr(b)
		idx := int(i) % WordsPerBlock
		wa := ba.WordAddr(idx)
		return wa.Block() == ba && wa.WordIndex() == idx && wa%WordBytes == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryReadWriteWord(t *testing.T) {
	m := NewMemory()
	if got := m.ReadWord(0x100); got != 0 {
		t.Errorf("unwritten word = %#x, want 0", got)
	}
	m.WriteWord(0x100, 0xdeadbeef)
	m.WriteWord(0x108, 0xcafe)
	if got := m.ReadWord(0x100); got != 0xdeadbeef {
		t.Errorf("ReadWord(0x100) = %#x, want 0xdeadbeef", got)
	}
	if got := m.ReadWord(0x108); got != 0xcafe {
		t.Errorf("ReadWord(0x108) = %#x, want 0xcafe", got)
	}
	blk := m.ReadBlock(Addr(0x100).Block())
	if blk[0] != 0xdeadbeef || blk[1] != 0xcafe {
		t.Errorf("block readback mismatch: %v", blk)
	}
}

func TestMemoryWriteBlockOverwrites(t *testing.T) {
	m := NewMemory()
	m.WriteWord(0x40, 1)
	m.WriteBlock(1, Block{9, 8, 7})
	if got := m.ReadWord(0x40); got != 9 {
		t.Errorf("ReadWord after WriteBlock = %#x, want 9", got)
	}
}

func TestMemoryECCCorrectsSingleBitFlip(t *testing.T) {
	m := NewMemory()
	m.WriteWord(0x200, 0xabcd)
	if !m.CorruptBit(Addr(0x200).Block(), 3) {
		t.Fatal("CorruptBit found no block")
	}
	if got := m.ReadWord(0x200); got != 0xabcd {
		t.Errorf("ECC failed to correct: got %#x, want 0xabcd", got)
	}
	if m.ecc.Corrected() != 1 {
		t.Errorf("Corrected() = %d, want 1", m.ecc.Corrected())
	}
}

func TestECCUncorrectableMultiBit(t *testing.T) {
	var e ECC
	b := Block{1, 2, 3}
	e.Flip(42, &b, 0)
	e.Flip(42, &b, 1) // two-bit damage
	if e.Correct(42, &b) {
		t.Error("Correct repaired multi-bit damage")
	}
	if b != (Block{1 ^ 0b11, 2, 3}) || e.Corrected() != 0 {
		t.Errorf("multi-bit damage touched: %v, %d corrections", b, e.Corrected())
	}
	e.Flip(42, &b, 1) // a second strike on the same bit restores it
	if !e.Correct(42, &b) || b != (Block{1, 2, 3}) {
		t.Errorf("the remaining single upset was not corrected: %v", b)
	}
}

func TestECCCorrectionCount(t *testing.T) {
	var e ECC
	b := Block{0xff}
	e.Flip(1, &b, 5*64+9)
	other := Block{0xee}
	if e.Correct(2, &other) || other != (Block{0xee}) {
		t.Fatal("an upset of line 1 was corrected in line 2")
	}
	if !e.Correct(1, &b) {
		t.Fatal("single-bit flip not corrected")
	}
	if b != (Block{0xff}) {
		t.Errorf("data not restored: %v", b)
	}
	if e.Correct(1, &b) || e.Corrected() != 1 {
		t.Errorf("Corrected() = %d after a second access, want 1", e.Corrected())
	}
}

func TestECCUnprotectedLineIsClean(t *testing.T) {
	var e ECC
	b := Block{7}
	if e.Correct(99, &b) || b != (Block{7}) {
		t.Error("a line with no upset was changed")
	}
	e.Flip(99, &b, 0)
	e.Forget(99) // deallocated: its contents are no longer protected data
	if e.Correct(99, &b) || b != (Block{6}) {
		t.Errorf("deallocated line corrected: %v", b)
	}
}

// TestECCProtectIdempotent: a legitimate full rewrite re-protects the
// line, so nothing it wrote is corrected afterwards.
func TestECCProtectIdempotent(t *testing.T) {
	var e ECC
	b := Block{1}
	e.Flip(7, &b, 64)
	b = Block{2} // a legitimate full rewrite
	e.Forget(7)
	if e.Correct(7, &b) || b != (Block{2}) {
		t.Errorf("rewritten block corrected: %v", b)
	}
	e.Flip(7, &b, 0)
	e.Flip(8, &b, 1)
	e.Reset()
	if !e.Clean() {
		t.Error("Reset left upsets")
	}
}

// shadowECC is the SEC-DED model as it was before the upset ledger: a
// shadow copy of every protected line, compared bit for bit on access.
// It survives only as the reference ECC is checked against. Protect must
// run on every legitimate write, Check on every access, a partial write
// included (before it writes).
type shadowECC struct {
	shadow        map[uint64]*Block
	corrected     uint64
	uncorrectable uint64
}

func newShadowECC() *shadowECC { return &shadowECC{shadow: make(map[uint64]*Block)} }

func (e *shadowECC) Protect(tag uint64, data *Block) {
	s, ok := e.shadow[tag]
	if !ok {
		s = new(Block)
		e.shadow[tag] = s
	}
	*s = *data
}

func (e *shadowECC) Unprotect(tag uint64) { delete(e.shadow, tag) }

func (e *shadowECC) Check(tag uint64, data *Block) {
	s, ok := e.shadow[tag]
	if !ok {
		return
	}
	diffBits := 0
	for i := range data {
		diffBits += bits.OnesCount64(uint64(data[i] ^ s[i]))
	}
	switch {
	case diffBits == 1:
		*data = *s
		e.corrected++
	case diffBits > 1:
		e.uncorrectable++
	}
}

// TestECCMatchesShadow drives the ledger and the shadow reference over a
// few lines with the same seeded installs, reads, partial and full
// writes, invalidations and flips (single, and two at once, beyond
// repair). The data and the correction counts must agree after every
// step. TestUndoLogMatchesSnapshots does the same for Memory's Mark,
// Rewind and Reprotect.
func TestECCMatchesShadow(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var e ECC
		ref := newShadowECC()
		var got, want [6]Block
		var live [6]bool
		randBlock := func() (d Block) {
			for i := range d {
				d[i] = Word(rng.Uint64())
			}
			return d
		}
		flip := func(tag int, bit int) {
			e.Flip(uint64(tag), &got[tag], bit)
			want[tag][bit/64] ^= Word(1) << (bit % 64)
		}
		for step := 0; step < 20000; step++ {
			tag := rng.Intn(len(got))
			switch op := rng.Intn(100); {
			case !live[tag] || op < 10: // install, or a full write
				d := randBlock()
				got[tag], want[tag], live[tag] = d, d, true
				e.Forget(uint64(tag))
				ref.Protect(uint64(tag), &want[tag])
			case op < 45: // read
				e.Correct(uint64(tag), &got[tag])
				ref.Check(uint64(tag), &want[tag])
			case op < 70: // partial write
				w, v := rng.Intn(WordsPerBlock), Word(rng.Uint64())
				e.Correct(uint64(tag), &got[tag])
				got[tag][w] = v
				e.Forget(uint64(tag))
				ref.Check(uint64(tag), &want[tag])
				want[tag][w] = v
				ref.Protect(uint64(tag), &want[tag])
			case op < 80: // invalidate
				live[tag] = false
				e.Forget(uint64(tag))
				ref.Unprotect(uint64(tag))
			case op < 95:
				flip(tag, rng.Intn(512))
			default:
				flip(tag, rng.Intn(512))
				flip(tag, rng.Intn(512))
			}
			if got != want || e.Corrected() != ref.corrected {
				t.Fatalf("seed %d step %d: ledger %v (%d corrections), reference %v (%d)",
					seed, step, got, e.Corrected(), want, ref.corrected)
			}
		}
		if ref.corrected == 0 || ref.uncorrectable == 0 {
			t.Errorf("seed %d: %d corrections, %d uncorrectable accesses: the mix misses a path",
				seed, ref.corrected, ref.uncorrectable)
		}
	}
}

// refMemory is the memory as it was before the undo log, whole-memory
// Snapshot and Restore included: the reference the log is tested against.
// Its ECC, when it has one, is the shadow model.
type refMemory struct {
	blocks map[BlockAddr]*Block
	ecc    *shadowECC
}

func newRefMemory(ecc bool) *refMemory {
	m := &refMemory{blocks: make(map[BlockAddr]*Block)}
	if ecc {
		m.ecc = newShadowECC()
	}
	return m
}

func (m *refMemory) ReadBlock(b BlockAddr) Block {
	if m.ecc != nil {
		if blk, ok := m.blocks[b]; ok {
			m.ecc.Check(uint64(b), blk)
		}
	}
	if blk, ok := m.blocks[b]; ok {
		return *blk
	}
	return Block{}
}

func (m *refMemory) WriteBlock(b BlockAddr, data Block) {
	blk, ok := m.blocks[b]
	if !ok {
		blk = new(Block)
		m.blocks[b] = blk
	}
	*blk = data
	if m.ecc != nil {
		m.ecc.Protect(uint64(b), blk)
	}
}

func (m *refMemory) WriteWord(addr Addr, w Word) {
	b := addr.Block()
	blk := m.ReadBlock(b)
	blk[addr.WordIndex()] = w
	m.WriteBlock(b, blk)
}

func (m *refMemory) CorruptBit(b BlockAddr, bit int) bool {
	blk, ok := m.blocks[b]
	if !ok {
		return false
	}
	blk[bit/64] ^= Word(1) << (bit % 64)
	return true
}

func (m *refMemory) Blocks() int { return len(m.blocks) }

func (m *refMemory) SampleBlocks(max int) []BlockAddr {
	out := make([]BlockAddr, 0, len(m.blocks))
	for b := range m.blocks {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if len(out) > max {
		out = out[:max]
	}
	return out
}

func (m *refMemory) Snapshot() map[BlockAddr]Block {
	snap := make(map[BlockAddr]Block, len(m.blocks))
	for _, b := range m.SampleBlocks(len(m.blocks)) {
		snap[b] = *m.blocks[b]
	}
	return snap
}

func (m *refMemory) Restore(snap map[BlockAddr]Block) {
	m.blocks = make(map[BlockAddr]*Block, len(snap))
	order := make([]BlockAddr, 0, len(snap))
	for b := range snap {
		order = append(order, b)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, b := range order {
		cp := snap[b]
		m.blocks[b] = &cp
		if m.ecc != nil {
			m.ecc.Protect(uint64(b), &cp)
		}
	}
}

// undoTwins drives a Memory and the reference with the same operations.
type undoTwins struct {
	t       *testing.T
	m       *Memory
	ref     *refMemory
	snaps   map[uint64]map[BlockAddr]Block
	live    []uint64 // marks, oldest first
	touched map[BlockAddr]bool
}

// newUndoTwins pairs a Memory, whose ECC is always on, with a reference
// with or without the shadow ECC. Without it no bit is ever upset (corrupt
// does nothing), which checks that ECC is invisible to a fault-free run.
func newUndoTwins(t *testing.T, ecc bool) *undoTwins {
	return &undoTwins{t: t, m: NewMemory(), ref: newRefMemory(ecc),
		snaps: map[uint64]map[BlockAddr]Block{}, touched: map[BlockAddr]bool{}}
}

func (u *undoTwins) writeBlock(b BlockAddr, d Block) {
	u.touched[b] = true
	u.m.WriteBlock(b, d)
	u.ref.WriteBlock(b, d)
}

func (u *undoTwins) writeWord(a Addr, w Word) {
	u.touched[a.Block()] = true
	u.m.WriteWord(a, w)
	u.ref.WriteWord(a, w)
}

func (u *undoTwins) readBlock(b BlockAddr) {
	u.t.Helper()
	if got, want := u.m.ReadBlock(b), u.ref.ReadBlock(b); got != want {
		u.t.Fatalf("ReadBlock(%#x) = %v, reference %v", b, got, want)
	}
}

func (u *undoTwins) corrupt(b BlockAddr, bits ...int) {
	u.t.Helper()
	if u.ref.ecc == nil {
		return
	}
	for _, bit := range bits {
		if got, want := u.m.CorruptBit(b, bit), u.ref.CorruptBit(b, bit); got != want {
			u.t.Fatalf("CorruptBit(%#x, %d) = %v, reference %v", b, bit, got, want)
		}
	}
}

func (u *undoTwins) mark() uint64 {
	id := u.m.Mark()
	u.snaps[id] = u.ref.Snapshot()
	u.live = append(u.live, id)
	return id
}

func (u *undoTwins) trimOldest() {
	id := u.live[0]
	u.live = u.live[1:]
	u.m.Trim(id)
	delete(u.snaps, id)
}

// rewind restores both sides to live mark i (squashing the newer ones)
// and compares everything a caller can observe.
func (u *undoTwins) rewind(i int) {
	u.t.Helper()
	id := u.live[i]
	u.live = u.live[:i+1]
	u.m.Rewind(id)
	u.m.Reprotect()
	u.ref.Restore(u.snaps[id])
	u.compare()
}

func (u *undoTwins) compare() {
	u.t.Helper()
	if got, want := u.m.Blocks(), u.ref.Blocks(); got != want {
		u.t.Fatalf("Blocks() = %d, reference %d", got, want)
	}
	if got, want := u.m.SampleBlocks(64), u.ref.SampleBlocks(64); !reflect.DeepEqual(got, want) {
		u.t.Fatalf("SampleBlocks(64) = %v, reference %v", got, want)
	}
	all := make([]BlockAddr, 0, len(u.touched))
	for b := range u.touched {
		all = append(all, b)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for _, b := range all {
		u.readBlock(b)
	}
	// The code words must match too: one more flip is repaired, or stays,
	// exactly as in the reference.
	for i, b := range all {
		if i%3 == 0 {
			u.corrupt(b, int(b)%512)
			u.readBlock(b)
		}
	}
	u.counters()
}

func (u *undoTwins) counters() {
	u.t.Helper()
	var want uint64
	if u.ref.ecc != nil {
		want = u.ref.ecc.corrected
	}
	if got := u.m.ecc.Corrected(); got != want {
		u.t.Fatalf("Corrected() = %d, reference %d", got, want)
	}
}

// TestUndoLogMatchesSnapshots drives the undo log and the whole-memory
// snapshots it replaced with the same seeded random operations. With
// ecc=true the reference's ECC is the shadow model, and flips, rewinds
// and Reprotect must leave both with the same data and corrections; with
// ecc=false the reference has no ECC and no bit is upset.
func TestUndoLogMatchesSnapshots(t *testing.T) {
	for _, ecc := range []bool{false, true} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("ecc=%v/seed=%d", ecc, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				u := newUndoTwins(t, ecc)
				block := func() BlockAddr { return BlockAddr(rng.Intn(48)) }
				rewinds := 0
				for step := 0; step < 4000; step++ {
					switch op := rng.Intn(100); {
					case op < 30:
						var d Block
						for i := range d {
							d[i] = Word(rng.Uint64())
						}
						u.writeBlock(block(), d)
					case op < 55:
						u.writeWord(block().WordAddr(rng.Intn(WordsPerBlock)), Word(rng.Uint64()))
					case op < 75:
						u.readBlock(block())
					case op < 80:
						u.corrupt(block(), rng.Intn(512))
					case op < 83:
						bit := rng.Intn(511)
						u.corrupt(block(), bit, bit+1) // beyond SEC-DED's repair
					case op < 91:
						u.mark()
						if len(u.live) > 4 {
							u.trimOldest()
						}
					case op < 97 && len(u.live) > 0:
						// Newest, an older one, or — when the last step was
						// also a rewind — the same one again (nested).
						u.rewind(rng.Intn(len(u.live)))
						rewinds++
						if rng.Intn(3) == 0 {
							u.writeWord(block().WordAddr(0), Word(step))
							u.rewind(len(u.live) - 1)
						}
					case len(u.live) > 1:
						u.trimOldest()
					}
				}
				u.compare()
				if rewinds < 50 {
					t.Errorf("only %d rewinds", rewinds)
				}
			})
		}
	}
}

// TestUndoLogFlipCapturedByMarkSurvivesRewind: a bit flipped before a
// checkpoint is part of what the checkpoint holds. After recovery it is
// still flipped and ECC, re-protected over the restored image, takes it
// for the code word — as Restore(Snapshot()) always did.
func TestUndoLogFlipCapturedByMarkSurvivesRewind(t *testing.T) {
	u := newUndoTwins(t, true)
	u.writeBlock(3, Block{0xf0})
	u.corrupt(3, 2)
	u.mark()
	u.readBlock(3) // repairs the flip, in place, without a store
	if len(u.m.log) != 1 {
		t.Fatalf("ECC repair logged %d entries, want 1", len(u.m.log))
	}
	u.writeBlock(3, Block{7})
	u.rewind(0)
	if got := u.m.ReadBlock(3); got != (Block{0xf0 ^ 4}) {
		t.Errorf("restored block = %v, want the flipped %v", got, Block{0xf0 ^ 4})
	}
}

func TestUndoLogBlocksCreatedAfterMarkVanish(t *testing.T) {
	u := newUndoTwins(t, false)
	u.writeBlock(1, Block{1})
	u.mark()
	u.writeBlock(2, Block{2})
	u.writeWord(BlockAddr(9).WordAddr(3), 5)
	if !u.m.CorruptBit(2, 0) {
		t.Fatal("block 2 not stored")
	}
	u.rewind(0)
	if u.m.Blocks() != 1 || u.m.CorruptBit(2, 0) || u.m.CorruptBit(9, 0) {
		t.Errorf("blocks created after the mark survive the rewind: %v", u.m.SampleBlocks(8))
	}
	// Created again, they are logged again.
	u.writeBlock(2, Block{3})
	u.rewind(0)
	if u.m.Blocks() != 1 {
		t.Errorf("Blocks() = %d after the second rewind, want 1", u.m.Blocks())
	}
}

// TestUndoLogStaysBounded: with the oldest mark trimmed at every
// checkpoint, the log never holds more than the first writes of the live
// intervals, however long the run.
func TestUndoLogStaysBounded(t *testing.T) {
	const keep, blocks, writes = 4, 64, 40
	rng := rand.New(rand.NewSource(9))
	m := NewMemory()
	var live []uint64
	var firstWrites []int // per live interval
	peak := 0
	for interval := 0; interval < 1000; interval++ {
		live = append(live, m.Mark())
		firstWrites = append(firstWrites, 0)
		if len(live) > keep {
			m.Trim(live[0])
			live, firstWrites = live[1:], firstWrites[1:]
		}
		seen := map[BlockAddr]bool{}
		for i := 0; i < writes; i++ {
			b := BlockAddr(rng.Intn(blocks))
			m.WriteWord(b.WordAddr(i%WordsPerBlock), Word(i))
			if !seen[b] {
				seen[b] = true
				firstWrites[len(firstWrites)-1]++
			}
		}
		bound := 0
		for _, n := range firstWrites {
			bound += n
		}
		if len(m.log) > bound {
			t.Fatalf("interval %d: %d log entries, the live intervals made %d first writes", interval, len(m.log), bound)
		}
		if len(m.log) > peak {
			peak = len(m.log)
		}
	}
	if peak == 0 || peak > keep*writes {
		t.Errorf("peak log length %d, want in (0, %d]", peak, keep*writes)
	}
}

func TestUndoLogRewindToTrimmedMarkPanics(t *testing.T) {
	m := NewMemory()
	old := m.Mark()
	m.WriteWord(0x40, 1)
	m.Mark()
	m.Trim(old)
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "not live") {
			t.Errorf("Rewind to a trimmed mark: recovered %v, want a panic naming the mark", r)
		}
	}()
	m.Rewind(old)
}

// TestUndoLogTrimOfNewestKeepsOlderRewindExact: a recovery squashes the
// checkpoints after the one it restores; their marks go before the rewind
// and their entries must still unwind.
func TestUndoLogTrimOfNewestKeepsOlderRewindExact(t *testing.T) {
	u := newUndoTwins(t, true)
	u.writeBlock(1, Block{1})
	u.mark()
	u.writeBlock(1, Block{2})
	u.mark()
	u.writeBlock(1, Block{3}) // first write of the second interval
	u.writeBlock(4, Block{4})
	newest := u.live[1]
	u.m.Trim(newest)
	delete(u.snaps, newest)
	u.live = u.live[:1]
	u.writeBlock(1, Block{5})
	u.rewind(0)
	if got := u.m.ReadBlock(1); got != (Block{1}) {
		t.Errorf("block 1 = %v, want %v", got, Block{1})
	}
}

// TestUndoLogSteadyStateAllocFree: once the log has grown to the live
// intervals' first writes, a checkpoint interval — mark, rewrite stored
// blocks, trim the oldest mark — allocates nothing.
func TestUndoLogSteadyStateAllocFree(t *testing.T) {
	m := NewMemory()
	for b := BlockAddr(0); b < 32; b++ {
		m.WriteBlock(b, Block{Word(b)})
	}
	var live []uint64
	n := 0
	interval := func() {
		live = append(live, m.Mark())
		if len(live) > 3 {
			m.Trim(live[0])
			copy(live, live[1:])
			live = live[:len(live)-1]
		}
		for i := 0; i < 24; i++ {
			n++
			m.WriteWord(BlockAddr(n%32).WordAddr(n%WordsPerBlock), Word(n))
		}
	}
	for i := 0; i < 8; i++ {
		interval()
	}
	if allocs := testing.AllocsPerRun(200, interval); allocs != 0 {
		t.Errorf("%v allocs per checkpoint interval, want 0", allocs)
	}
	if len(m.log) == 0 || len(m.log) > 3*24 {
		t.Errorf("log holds %d entries, want in (0, 72]", len(m.log))
	}
}
