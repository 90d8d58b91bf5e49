package coherence

import (
	"dvmc/internal/mem"
	"dvmc/internal/sim"
)

// line is one L2 cache line: the coherence unit. Data lives only here;
// the L1 in front of it is a tag filter (an inclusive subset of L2 tags
// that models L1 hit latency without duplicating storage, which keeps the
// Cache Correctness property — data changes only via stores — trivially
// auditable). The word-sized fields come first and the three one-byte
// ones share the last word, so a line is 88 B (TestLineSize).
type line struct {
	block mem.BlockAddr
	data  mem.Block
	lru   uint64
	state State
	valid bool
	// dataValid is false between the ordering point of an epoch and the
	// arrival of the block's data (snooping systems; the CET's
	// DataReadyBit mirrors this).
	dataValid bool
}

// chunkSets is how many consecutive sets share one allocation of
// entries. A system allocates what its run touches (DESIGN.md, "Object
// lifetimes"): a fuzz program touches four blocks, so an array holds
// chunks, each allocated at the first fill of one of its sets. A smaller
// chunk costs a short run fewer bytes and a run that touches many sets
// more heap objects. 16 is the smallest power of two at which paper-eval
// allocates at most 2 % more objects per run than 64-set chunks of the
// 104-B line did (11,124 at seed 1). At seed 1, bytes per fuzz case
// (fuzz.TestCaseAllocBudget) and paper-eval allocs_per_work by chunk:
// 4 sets 107,036 and 11,645; 8 sets 107,590 and 11,441; 16 sets 114,618
// and 11,289; 32 sets 132,971 and 11,190; 64 sets 172,410 and 11,131.
const chunkSets = 16

// setArray holds a set-associative array's entries, ways per set, in
// chunks of chunkSets sets. The L2 array and the L1 tag filter are both
// one.
type setArray[E any] struct {
	sets, ways int
	// chunks[k] holds sets k*chunkSets onwards (fewer in the last chunk);
	// its entries are nil until fillSet first needs one of them. Walking
	// chunks in order and each chunk's entries in order visits allocated
	// entries in set order, as a flat array would.
	chunks []chunk[E]
}

// chunk is one allocation of entries, ways per set, row-major by set.
type chunk[E any] struct {
	entries []E
	// touched has bit i set when a line of the chunk's set i changed since
	// the last ForEachDirty (the L2 array only; see cacheArray.touch). It
	// rides beside the entries, so an array's change record costs no
	// allocation of its own.
	touched uint16
}

// A chunk's touched mask has one bit per set.
var _ [16 - chunkSets]struct{}

// emptied returns a with no entry, for sets × ways: the chunks already
// filled are kept, cleared, when the geometry is a's, and dropped
// otherwise.
func (a *setArray[E]) emptied(sets, ways int) setArray[E] {
	if a.sets != sets || a.ways != ways {
		return setArray[E]{sets: sets, ways: ways, chunks: make([]chunk[E], (sets+chunkSets-1)/chunkSets)}
	}
	for k := range a.chunks {
		clear(a.chunks[k].entries)
		a.chunks[k].touched = 0
	}
	return setArray[E]{sets: sets, ways: ways, chunks: a.chunks}
}

// setIndex returns block b's set.
func (a *setArray[E]) setIndex(b mem.BlockAddr) int { return int(uint64(b) % uint64(a.sets)) }

// setOf returns block b's set: empty while its chunk has never been
// filled, so a lookup there misses.
func (a *setArray[E]) setOf(b mem.BlockAddr) []E { return a.set(a.setIndex(b)) }

// set returns set s's entries, empty while its chunk has never been
// filled.
func (a *setArray[E]) set(s int) []E {
	entries := a.chunks[s/chunkSets].entries
	if entries == nil {
		return nil
	}
	i := s % chunkSets * a.ways
	return entries[i : i+a.ways]
}

// fillSet is setOf for a fill: it allocates b's chunk on first use.
func (a *setArray[E]) fillSet(b mem.BlockAddr) []E {
	k := a.setIndex(b) / chunkSets
	if a.chunks[k].entries == nil {
		a.chunks[k].entries = make([]E, min(chunkSets, a.sets-k*chunkSets)*a.ways)
	}
	return a.setOf(b)
}

// cacheArray is a set-associative array with LRU replacement, its lines
// under SEC-DED ECC (the paper's Cache Correctness assumes ECC on every
// cache line). Every change to a line's block, state, valid, dataValid or
// data is made here and marks the line's set touched, which is how
// ForEachDirty knows what a checkpoint must re-read (TestLineWrites keeps
// the other files from writing those fields).
type cacheArray struct {
	setArray[line]
	tick uint64
	ecc  mem.ECC
}

// emptied returns a, or a new array if a is nil, holding no line and no
// upset for sets × ways. An upset ledger is rare enough to drop.
func (a *cacheArray) emptied(sets, ways int) *cacheArray {
	a = sim.OrNew(a)
	*a = cacheArray{setArray: a.setArray.emptied(sets, ways)}
	return a
}

// touch marks block b's set as changed since the last ForEachDirty.
func (a *cacheArray) touch(b mem.BlockAddr) {
	s := a.setIndex(b)
	a.chunks[s/chunkSets].touched |= 1 << (s % chunkSets)
}

// lookup returns the line holding b, or nil.
func (a *cacheArray) lookup(b mem.BlockAddr) *line {
	set := a.setOf(b)
	for i := range set {
		if set[i].valid && set[i].block == b {
			a.tick++
			set[i].lru = a.tick
			return &set[i]
		}
	}
	return nil
}

// peek is lookup without touching LRU state.
func (a *cacheArray) peek(b mem.BlockAddr) *line {
	set := a.setOf(b)
	for i := range set {
		if set[i].valid && set[i].block == b {
			return &set[i]
		}
	}
	return nil
}

// install places block b into l with the given state and data.
func (a *cacheArray) install(l *line, b mem.BlockAddr, s State, data mem.Block, dataValid bool) {
	a.tick++
	*l = line{valid: true, block: b, state: s, data: data, dataValid: dataValid, lru: a.tick}
	a.ecc.Forget(uint64(b))
	a.touch(b)
}

// setState changes a resident line's MOSI state and whether its data has
// arrived (a snooping upgrade is ordered before its data).
func (a *cacheArray) setState(l *line, s State, dataValid bool) {
	l.state = s
	l.dataValid = dataValid
	a.touch(l.block)
}

// correct lets ECC repair l's data before it is read.
func (a *cacheArray) correct(l *line) {
	if a.ecc.Correct(uint64(l.block), &l.data) {
		a.touch(l.block)
	}
}

// writeWord performs a store into a resident line. ECC corrects the line
// before the store re-encodes it, so an upset in another word is
// repaired, not written into the code.
func (a *cacheArray) writeWord(l *line, addr mem.Addr, w mem.Word) {
	a.ecc.Correct(uint64(l.block), &l.data)
	l.data[addr.WordIndex()] = w
	a.ecc.Forget(uint64(l.block))
	a.touch(l.block)
}

// writeBlock replaces a resident line's data (snooping data arrival).
func (a *cacheArray) writeBlock(l *line, data mem.Block) {
	l.data = data
	l.dataValid = true
	a.ecc.Forget(uint64(l.block))
	a.touch(l.block)
}

// readWord reads a word, letting ECC correct a single-bit upset first.
func (a *cacheArray) readWord(l *line, addr mem.Addr) mem.Word {
	a.correct(l)
	return l.data[addr.WordIndex()]
}

// readBlock reads the whole block, letting ECC correct it first.
func (a *cacheArray) readBlock(l *line) mem.Block {
	a.correct(l)
	return l.data
}

// flip upsets one bit of a resident line behind the code.
func (a *cacheArray) flip(l *line, bit int) {
	a.ecc.Flip(uint64(l.block), &l.data, bit)
	a.touch(l.block)
}

// invalidate frees a line, and ECC forgets its upsets.
func (a *cacheArray) invalidate(l *line) {
	a.ecc.Forget(uint64(l.block))
	l.valid = false
	l.state = Invalid
	a.touch(l.block)
}

// dirty reports whether l holds the system's only up-to-date copy of its
// block: what a checkpoint must capture.
func (l *line) dirty() bool {
	return l.valid && l.dataValid && (l.state == Modified || l.state == Owned)
}

// occupancy returns the number of valid lines (for tests).
func (a *cacheArray) occupancy() int {
	n := 0
	for _, chunk := range a.chunks {
		for i := range chunk.entries {
			if chunk.entries[i].valid {
				n++
			}
		}
	}
	return n
}

// tagFilter models the L1 as a set-associative tag array in front of the
// L2: presence means an L1 hit at L1 latency; data is always read from
// the L2 array. Inclusion is maintained by invalidating L1 tags whenever
// the L2 loses a block.
type tagFilter struct {
	setArray[tag]
	tick uint64
}

// tag is one L1 way. lru 0 marks it invalid: every fill stamps a tick,
// and the first tick is 1.
type tag struct {
	block mem.BlockAddr
	lru   uint64
}

// emptied returns f, or a new filter if f is nil, holding no tag.
func (f *tagFilter) emptied(sets, ways int) *tagFilter {
	f = sim.OrNew(f)
	*f = tagFilter{setArray: f.setArray.emptied(sets, ways)}
	return f
}

// present reports an L1 tag hit and refreshes LRU.
func (f *tagFilter) present(b mem.BlockAddr) bool {
	set := f.setOf(b)
	for i := range set {
		if set[i].lru != 0 && set[i].block == b {
			f.tick++
			set[i].lru = f.tick
			return true
		}
	}
	return false
}

// insert fills b into the filter, evicting the LRU way silently.
func (f *tagFilter) insert(b mem.BlockAddr) {
	set := f.fillSet(b)
	vic := 0
	for i := range set {
		if set[i].lru != 0 && set[i].block == b {
			f.tick++
			set[i].lru = f.tick
			return
		}
		if set[i].lru == 0 {
			vic = i
			break
		}
		if set[i].lru < set[vic].lru {
			vic = i
		}
	}
	f.tick++
	set[vic] = tag{block: b, lru: f.tick}
}

// invalidate removes b if present (L2 inclusion enforcement).
func (f *tagFilter) invalidate(b mem.BlockAddr) {
	set := f.setOf(b)
	for i := range set {
		if set[i].lru != 0 && set[i].block == b {
			set[i].lru = 0
			return
		}
	}
}
