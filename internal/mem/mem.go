// Package mem provides the memory primitives shared by the processor model,
// the cache-coherence substrate, and the DVMC checkers: word and block
// addressing, data blocks, main memory, and a single-error-correcting /
// double-error-detecting (SEC-DED) ECC model.
//
// Following the paper's proof of correctness (Appendix A), memory is
// accessed at word granularity (64-bit words) and coherence operates at
// block granularity (64-byte blocks, 8 words).
package mem

import (
	"fmt"
	"sort"
)

const (
	// WordBytes is the size of a machine word in bytes.
	WordBytes = 8
	// BlockBytes is the coherence-unit (cache line) size in bytes.
	BlockBytes = 64
	// WordsPerBlock is the number of words in a coherence block.
	WordsPerBlock = BlockBytes / WordBytes
	// blockShift is log2(BlockBytes).
	blockShift = 6
)

// Addr is a byte address. Memory operations use word-aligned addresses.
type Addr uint64

// Word is a 64-bit data word.
type Word uint64

// BlockAddr identifies a coherence block (Addr >> 6).
type BlockAddr uint64

// Block returns the coherence block containing the address.
func (a Addr) Block() BlockAddr { return BlockAddr(a >> blockShift) }

// WordIndex returns the index of the word within its block, in [0, 8).
func (a Addr) WordIndex() int { return int(a>>3) & (WordsPerBlock - 1) }

// WordAligned reports whether the address is word aligned.
func (a Addr) WordAligned() bool { return a&(WordBytes-1) == 0 }

// WordAddr returns the byte address of word i of the block.
func (b BlockAddr) WordAddr(i int) Addr { return Addr(b)<<blockShift + Addr(i)*WordBytes }

// Block is the data of one coherence unit.
type Block [WordsPerBlock]Word

// String implements fmt.Stringer for debugging output.
func (b Block) String() string {
	return fmt.Sprintf("[%x %x %x %x %x %x %x %x]", b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7])
}

// Memory is the globally shared main memory, sparsely backed. The zero
// value is not usable; create one with NewMemory.
//
// Memory keeps an undo log for backward error recovery (SafetyNet logs
// "the old value of a block on its first write per interval"): Mark opens
// an interval, every change to a stored block — a write, an injected bit
// flip, an ECC repair on read — records the block's previous contents the
// first time it happens after the newest mark, and Rewind unwinds the log
// back to a mark. The log sits here, not with the caches' store stream,
// because what a checkpoint must reproduce is memory as it physically is,
// faults included, and a flipped or repaired bit changes memory without
// any store.
type Memory struct {
	blocks map[BlockAddr]*cell
	ecc    ECC

	// log holds the old contents of changed blocks, oldest first; marks
	// are the live interval starts, oldest first, as positions in the log
	// counted from its first ever entry (logBase is log[0]'s position).
	log     []undoRec
	logBase int
	marks   []mark
	lastID  uint64
	// epoch numbers the stretches between Marks and Rewinds; a cell whose
	// stamp equals it has already logged its old contents in this one.
	epoch uint64
}

// cell is one stored block and the epoch of its last logged change.
type cell struct {
	data  Block
	stamp uint64
}

// undoRec is the state of one block before its first change in an
// interval: its contents, or that it was not stored at all.
type undoRec struct {
	addr   BlockAddr
	old    Block
	absent bool
}

type mark struct {
	id  uint64
	pos int
}

// NewMemory returns an empty memory. Every block is protected by the
// SEC-DED model: a single-bit corruption injected via CorruptBit is
// corrected on the next read, as the paper requires for main memory
// ("DVMC requires ECC on all main memory DRAMs"). ECC is not optional, so
// any argument is ignored: it is accepted only because benchmark/layers.go
// still passes the flag an ECC-off memory once took.
func NewMemory(...bool) *Memory {
	return &Memory{blocks: make(map[BlockAddr]*cell)}
}

// logOld records block b's contents before its first change since the
// newest mark. Call it before the change, or pass the saved contents.
func (m *Memory) logOld(b BlockAddr, c *cell, old *Block) {
	if len(m.marks) == 0 || c.stamp == m.epoch {
		return
	}
	c.stamp = m.epoch
	m.log = append(m.log, undoRec{addr: b, old: *old})
}

// ReadBlock returns the contents of block b. Unwritten blocks read as zero.
func (m *Memory) ReadBlock(b BlockAddr) Block {
	c, ok := m.blocks[b]
	if !ok {
		return Block{}
	}
	if !m.ecc.Clean() { // a fault-free read copies nothing
		before := c.data
		if m.ecc.Correct(uint64(b), &c.data) {
			m.logOld(b, c, &before)
		}
	}
	return c.data
}

// WriteBlock replaces the contents of block b.
func (m *Memory) WriteBlock(b BlockAddr, data Block) {
	c, ok := m.blocks[b]
	if ok {
		m.logOld(b, c, &c.data)
	} else {
		c = &cell{stamp: m.epoch}
		m.blocks[b] = c
		if len(m.marks) > 0 {
			m.log = append(m.log, undoRec{addr: b, absent: true})
		}
	}
	c.data = data
	m.ecc.Forget(uint64(b))
}

// ReadWord returns the word at addr.
func (m *Memory) ReadWord(addr Addr) Word {
	blk := m.ReadBlock(addr.Block())
	return blk[addr.WordIndex()]
}

// WriteWord updates a single word in memory.
func (m *Memory) WriteWord(addr Addr, w Word) {
	b := addr.Block()
	blk := m.ReadBlock(b)
	blk[addr.WordIndex()] = w
	m.WriteBlock(b, blk)
}

// CorruptBit flips one bit of the stored block behind the code, modelling
// a particle strike in a DRAM cell; the next read corrects it. bit is in
// [0, 512).
// It reports whether a stored block existed to corrupt (an absent block
// cannot be corrupted; it has no physical cells in this model).
func (m *Memory) CorruptBit(b BlockAddr, bit int) bool {
	c, ok := m.blocks[b]
	if !ok {
		return false
	}
	m.logOld(b, c, &c.data)
	m.ecc.Flip(uint64(b), &c.data, bit)
	return true
}

// Blocks returns the number of blocks ever written, for accounting.
func (m *Memory) Blocks() int { return len(m.blocks) }

// SampleBlocks returns up to max written block addresses in ascending
// order (deterministic fault-injection targeting).
func (m *Memory) SampleBlocks(max int) []BlockAddr {
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

// Mark opens a new undo interval and returns its id: until it is trimmed
// or a Rewind to an older mark squashes it, memory can be rewound to its
// contents as of this call (SafetyNet checkpointing). It costs nothing
// now; the interval's first change to each block pays for it.
func (m *Memory) Mark() uint64 {
	m.lastID++
	m.epoch++
	m.marks = append(m.marks, mark{id: m.lastID, pos: m.logBase + len(m.log)})
	return m.lastID
}

// markIndex finds a live mark. An unknown id is a caller bug (the mark was
// trimmed or squashed): rewinding to it would silently restore the wrong
// contents, so it panics.
func (m *Memory) markIndex(id uint64) int {
	for i := range m.marks {
		if m.marks[i].id == id {
			return i
		}
	}
	panic(fmt.Sprintf("mem: mark %d is not live (trimmed, squashed or never made)", id))
}

// Rewind restores every block to its contents as of Mark id (SafetyNet
// recovery) by unwinding the log newest entry first; blocks first written
// since then are stored no more. Marks newer than id are squashed, id
// itself stays live and can be rewound to again. The ECC's upsets are
// left as they are: the caller re-protects (Reprotect) once it has
// finished writing the restored image.
func (m *Memory) Rewind(id uint64) {
	i := m.markIndex(id)
	keep := m.marks[i].pos - m.logBase
	for j := len(m.log) - 1; j >= keep; j-- {
		r := &m.log[j]
		if r.absent {
			delete(m.blocks, r.addr)
		} else {
			m.blocks[r.addr].data = r.old
		}
	}
	m.log = m.log[:keep]
	m.marks = m.marks[:i+1]
	m.epoch++
}

// Trim forgets Mark id: memory can no longer be rewound to it. The oldest
// mark takes its interval's log entries with it, which is what keeps the
// log bounded by the first writes of the live intervals; any other mark's
// entries now serve the mark before it.
func (m *Memory) Trim(id uint64) {
	i := m.markIndex(id)
	if i == 0 {
		end := m.logBase + len(m.log)
		if len(m.marks) > 1 {
			end = m.marks[1].pos
		}
		n := copy(m.log, m.log[end-m.logBase:])
		m.log = m.log[:n]
		m.logBase = end
	}
	m.marks = append(m.marks[:i], m.marks[i+1:]...)
}

// Reprotect re-encodes every stored block from its current contents, as
// a recovery's bulk rewrite of memory does, so ECC forgets every upset: a
// bit that was already flipped when the checkpoint was taken is part of
// the restored image and stays flipped.
func (m *Memory) Reprotect() { m.ecc.Reset() }
