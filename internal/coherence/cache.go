package coherence

import (
	"dvmc/internal/mem"
)

// line is one L2 cache line: the coherence unit. Data lives only here;
// the L1 in front of it is a tag filter (an inclusive subset of L2 tags
// that models L1 hit latency without duplicating storage, which keeps the
// Cache Correctness property — data changes only via stores — trivially
// auditable).
type line struct {
	valid bool
	block mem.BlockAddr
	state State
	data  mem.Block
	// dataValid is false between the ordering point of an epoch and the
	// arrival of the block's data (snooping systems; the CET's
	// DataReadyBit mirrors this).
	dataValid bool
	lru       uint64
}

// chunkSets is how many consecutive sets share one allocation of lines.
// A system allocates what its run touches (DESIGN.md, "Object
// lifetimes"): a short run fills a handful of the L2's sets, so the
// array holds chunks, each allocated at the first fill of one of its
// sets. Each chunk is one more heap object on runs that touch many sets:
// 64 is the smallest power of two at which paper-eval allocates no more
// objects than the flat array did (allocs_per_work at seed 1: 32 sets
// 11,315, flat 11,292, 64 sets 11,264).
const chunkSets = 64

// cacheArray is a set-associative array with LRU replacement.
type cacheArray struct {
	sets, ways int
	// chunks[k] holds sets k*chunkSets onwards (fewer in the last chunk),
	// ways lines each, row-major by set; nil until fillSet first needs
	// one of them. Walking chunks in order and each chunk's lines in
	// order visits allocated lines in set order, as a flat array would.
	chunks [][]line
	tick   uint64
	ecc    *mem.ECC
}

func newCacheArray(sets, ways int, withECC bool) *cacheArray {
	a := &cacheArray{sets: sets, ways: ways, chunks: make([][]line, (sets+chunkSets-1)/chunkSets)}
	if withECC {
		a.ecc = mem.NewECC()
	}
	return a
}

// setOf returns block b's set: empty while its chunk has never been
// filled, so a lookup there misses.
func (a *cacheArray) setOf(b mem.BlockAddr) []line {
	s := int(uint64(b) % uint64(a.sets))
	chunk := a.chunks[s/chunkSets]
	if chunk == nil {
		return nil
	}
	i := s % chunkSets * a.ways
	return chunk[i : i+a.ways]
}

// fillSet is setOf for a fill: it allocates b's chunk on first use.
func (a *cacheArray) fillSet(b mem.BlockAddr) []line {
	k := int(uint64(b)%uint64(a.sets)) / chunkSets
	if a.chunks[k] == nil {
		n := min(chunkSets, a.sets-k*chunkSets)
		a.chunks[k] = make([]line, n*a.ways)
	}
	return a.setOf(b)
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
	sets, ways int
	tags       []mem.BlockAddr
	valid      []bool
	lru        []uint64
	tick       uint64
}

func newTagFilter(sets, ways int) *tagFilter {
	n := sets * ways
	return &tagFilter{sets: sets, ways: ways, tags: make([]mem.BlockAddr, n), valid: make([]bool, n), lru: make([]uint64, n)}
}

func (f *tagFilter) index(b mem.BlockAddr) (lo, hi int) {
	s := int(uint64(b) % uint64(f.sets))
	return s * f.ways, (s + 1) * f.ways
}

// present reports an L1 tag hit and refreshes LRU.
func (f *tagFilter) present(b mem.BlockAddr) bool {
	lo, hi := f.index(b)
	for i := lo; i < hi; i++ {
		if f.valid[i] && f.tags[i] == b {
			f.tick++
			f.lru[i] = f.tick
			return true
		}
	}
	return false
}

// insert fills b into the filter, evicting the LRU way silently.
func (f *tagFilter) insert(b mem.BlockAddr) {
	lo, hi := f.index(b)
	vic := lo
	for i := lo; i < hi; i++ {
		if f.valid[i] && f.tags[i] == b {
			f.tick++
			f.lru[i] = f.tick
			return
		}
		if !f.valid[i] {
			vic = i
			break
		}
		if f.lru[i] < f.lru[vic] {
			vic = i
		}
	}
	f.tick++
	f.tags[vic] = b
	f.valid[vic] = true
	f.lru[vic] = f.tick
}

// invalidate removes b if present (L2 inclusion enforcement).
func (f *tagFilter) invalidate(b mem.BlockAddr) {
	lo, hi := f.index(b)
	for i := lo; i < hi; i++ {
		if f.valid[i] && f.tags[i] == b {
			f.valid[i] = false
			return
		}
	}
}
