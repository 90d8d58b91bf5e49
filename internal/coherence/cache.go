package coherence

import (
	"dvmc/internal/mem"
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
	// chunks[k] holds sets k*chunkSets onwards (fewer in the last chunk),
	// ways entries each, row-major by set; nil until fillSet first needs
	// one of them. Walking chunks in order and each chunk's entries in
	// order visits allocated entries in set order, as a flat array would.
	chunks [][]E
}

func newSetArray[E any](sets, ways int) setArray[E] {
	return setArray[E]{sets: sets, ways: ways, chunks: make([][]E, (sets+chunkSets-1)/chunkSets)}
}

// setOf returns block b's set: empty while its chunk has never been
// filled, so a lookup there misses.
func (a *setArray[E]) setOf(b mem.BlockAddr) []E {
	s := int(uint64(b) % uint64(a.sets))
	chunk := a.chunks[s/chunkSets]
	if chunk == nil {
		return nil
	}
	i := s % chunkSets * a.ways
	return chunk[i : i+a.ways]
}

// fillSet is setOf for a fill: it allocates b's chunk on first use.
func (a *setArray[E]) fillSet(b mem.BlockAddr) []E {
	k := int(uint64(b)%uint64(a.sets)) / chunkSets
	if a.chunks[k] == nil {
		n := min(chunkSets, a.sets-k*chunkSets)
		a.chunks[k] = make([]E, n*a.ways)
	}
	return a.setOf(b)
}

// cacheArray is a set-associative array with LRU replacement.
type cacheArray struct {
	setArray[line]
	tick uint64
	ecc  *mem.ECC
}

func newCacheArray(sets, ways int, withECC bool) *cacheArray {
	a := &cacheArray{setArray: newSetArray[line](sets, ways)}
	if withECC {
		a.ecc = mem.NewECC()
	}
	return a
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
	if a.ecc != nil && dataValid {
		a.ecc.Protect(uint64(b), &l.data)
	}
}

// writeWord performs a store into a resident line, refreshing ECC.
func (a *cacheArray) writeWord(l *line, addr mem.Addr, w mem.Word) {
	l.data[addr.WordIndex()] = w
	if a.ecc != nil {
		a.ecc.Protect(uint64(l.block), &l.data)
	}
}

// writeBlock replaces a resident line's data (snooping data arrival).
func (a *cacheArray) writeBlock(l *line, data mem.Block) {
	l.data = data
	l.dataValid = true
	if a.ecc != nil {
		a.ecc.Protect(uint64(l.block), &l.data)
	}
}

// readWord reads a word, letting ECC scrub single-bit upsets first.
func (a *cacheArray) readWord(l *line, addr mem.Addr) mem.Word {
	if a.ecc != nil {
		a.ecc.Check(uint64(l.block), &l.data)
	}
	return l.data[addr.WordIndex()]
}

// readBlock reads the whole block with ECC scrubbing.
func (a *cacheArray) readBlock(l *line) mem.Block {
	if a.ecc != nil {
		a.ecc.Check(uint64(l.block), &l.data)
	}
	return l.data
}

// invalidate frees a line, dropping its ECC protection.
func (a *cacheArray) invalidate(l *line) {
	if a.ecc != nil {
		a.ecc.Unprotect(uint64(l.block))
	}
	l.valid = false
	l.state = Invalid
}

// occupancy returns the number of valid lines (for tests).
func (a *cacheArray) occupancy() int {
	n := 0
	for _, chunk := range a.chunks {
		for i := range chunk {
			if chunk[i].valid {
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

func newTagFilter(sets, ways int) *tagFilter {
	return &tagFilter{setArray: newSetArray[tag](sets, ways)}
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
