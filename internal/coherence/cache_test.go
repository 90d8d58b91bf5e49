package coherence

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// flatArray is the L2 array as it was before set chunks: every line
// allocated up front, row-major by set. It survives only as the
// reference the chunked cacheArray is checked against.
type flatArray struct {
	sets, ways int
	lines      []line
	tick       uint64
	ecc        mem.ECC
}

func newFlatArray(sets, ways int) *flatArray {
	return &flatArray{sets: sets, ways: ways, lines: make([]line, sets*ways)}
}

func (a *flatArray) setOf(b mem.BlockAddr) []line {
	s := int(uint64(b) % uint64(a.sets))
	return a.lines[s*a.ways : (s+1)*a.ways]
}

func (a *flatArray) lookup(b mem.BlockAddr) *line {
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

func (a *flatArray) peek(b mem.BlockAddr) *line {
	set := a.setOf(b)
	for i := range set {
		if set[i].valid && set[i].block == b {
			return &set[i]
		}
	}
	return nil
}

func (a *flatArray) install(l *line, b mem.BlockAddr, s State, data mem.Block, dataValid bool) {
	a.tick++
	*l = line{valid: true, block: b, state: s, data: data, dataValid: dataValid, lru: a.tick}
	a.ecc.Forget(uint64(b))
}

func (a *flatArray) writeWord(l *line, addr mem.Addr, w mem.Word) {
	a.ecc.Correct(uint64(l.block), &l.data)
	l.data[addr.WordIndex()] = w
	a.ecc.Forget(uint64(l.block))
}

func (a *flatArray) readWord(l *line, addr mem.Addr) mem.Word {
	a.ecc.Correct(uint64(l.block), &l.data)
	return l.data[addr.WordIndex()]
}

func (a *flatArray) invalidate(l *line) {
	a.ecc.Forget(uint64(l.block))
	l.valid = false
	l.state = Invalid
}

func (a *flatArray) occupancy() int {
	n := 0
	for i := range a.lines {
		if a.lines[i].valid {
			n++
		}
	}
	return n
}

// allocate is ctrlCore.allocate over the flat array, with the eviction
// modelEvict performs.
func (a *flatArray) allocate(b mem.BlockAddr, busy map[mem.BlockAddr]*mshr) *line {
	set := a.setOf(b)
	var vic *line
	for i := range set {
		l := &set[i]
		if !l.valid {
			return l
		}
		if _, isBusy := busy[l.block]; isBusy {
			continue
		}
		if vic == nil || l.lru < vic.lru {
			vic = l
		}
	}
	if vic == nil {
		return nil
	}
	a.invalidate(vic)
	return vic
}

// dirty is ctrlCore.ForEachDirty's line walk over the flat array.
func (a *flatArray) dirty() []dirtyLine {
	var out []dirtyLine
	for i := range a.lines {
		l := &a.lines[i]
		if l.valid && l.dataValid && (l.state == Modified || l.state == Owned) {
			out = append(out, dirtyLine{l.block, l.data})
		}
	}
	return out
}

// resident is ctrlCore.ResidentBlocks over the flat array.
func (a *flatArray) resident(max int) []mem.BlockAddr {
	var valid []line
	for _, l := range a.lines {
		if l.valid && l.dataValid {
			valid = append(valid, l)
		}
	}
	sort.Slice(valid, func(i, j int) bool { return valid[i].lru > valid[j].lru })
	out := []mem.BlockAddr{}
	for i := 0; i < len(valid) && i < max; i++ {
		out = append(out, valid[i].block)
	}
	return out
}

type dirtyLine struct {
	b    mem.BlockAddr
	data mem.Block
}

// modelEvict is a protocol whose eviction drops the victim, as both
// real protocols end theirs.
type modelEvict struct{ c *ctrlCore }

func (p modelEvict) sendRequest(*mshr)        {}
func (p modelEvict) evict(l *line)            { p.c.l2.invalidate(l) }
func (p modelEvict) deliver(*network.Message) {}

// wayOf is l's index in set, -1 for nil.
func wayOf(t *testing.T, set []line, l *line) int {
	if l == nil {
		return -1
	}
	for i := range set {
		if &set[i] == l {
			return i
		}
	}
	t.Fatalf("line %p is not in its block's set", l)
	return -1
}

// TestCacheArraySteadyStateAllocFree: once its chunk exists, a set that
// churns through more blocks than it has ways — fills, evictions, reads,
// partial writes and a corrected upset per round — allocates nothing. The
// line ECC holds upsets, never a copy of a line.
func TestCacheArraySteadyStateAllocFree(t *testing.T) {
	const ways = 2
	c := &ctrlCore{l2: newCacheArray(4, ways), mshrs: make(map[mem.BlockAddr]*mshr)}
	c.proto = modelEvict{c}
	n := 0
	churn := func() {
		for i := 0; i < 3*ways; i++ {
			n++
			b := mem.BlockAddr(4 * (n % (3 * ways))) // one set
			l := c.l2.lookup(b)
			if l == nil {
				l = c.allocate(b)
				c.l2.install(l, b, Modified, mem.Block{mem.Word(n)}, true)
			}
			addr := b.WordAddr(n % mem.WordsPerBlock)
			c.l2.writeWord(l, addr, mem.Word(n))
			if n%5 == 0 {
				c.l2.flip(l, n%(mem.BlockBytes*8))
			}
			if c.l2.readWord(l, addr) != mem.Word(n) {
				t.Fatalf("block %#x: read back a corrupted word", b)
			}
		}
	}
	churn()
	if allocs := testing.AllocsPerRun(200, churn); allocs != 0 {
		t.Errorf("%v allocs per churn round, want 0", allocs)
	}
	if c.l2.ecc.Corrected() == 0 {
		t.Error("no upset was corrected: the round never reached the fault path")
	}
}

// TestLineSize pins the L2 line at 88 B: the block address, the data and
// the LRU tick, then the three one-byte fields in one word. A field added
// in the wrong place grows every chunk a run allocates.
func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 88 {
		t.Errorf("line is %d B, want 88", got)
	}
}

// TestChunkedArrayMatchesFlat drives the chunked L2 array, through the
// real ctrlCore.allocate, and the flat reference with the same random
// fills, lookups, peeks, word reads and writes, invalidations and busy
// (MSHR-held) blocks. Victims, LRU state, occupancy, the order of valid
// lines, the ForEachDirty sequence and ResidentBlocks must all agree,
// including on geometries whose set count is not a multiple of the chunk;
// and only a fill may allocate a chunk.
func TestChunkedArrayMatchesFlat(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{
		{1, 4}, {3, 2}, {65, 4}, {65, 16}, {512, 4}, {4096, 4},
	} {
		t.Run(fmt.Sprintf("%dx%d", g.sets, g.ways), func(t *testing.T) {
			flat := newFlatArray(g.sets, g.ways)
			c := &ctrlCore{l2: newCacheArray(g.sets, g.ways), mshrs: make(map[mem.BlockAddr]*mshr)}
			c.proto = modelEvict{c}
			filled := make(map[int]bool) // chunks a fill has landed in
			rng := sim.NewRand(uint64(g.sets)<<8 | uint64(g.ways))
			span := 2 * g.sets * g.ways

			compare := func(op int) {
				t.Helper()
				if got, want := c.l2.occupancy(), flat.occupancy(); got != want {
					t.Fatalf("op %d: occupancy %d, flat %d", op, got, want)
				}
				if c.l2.tick != flat.tick {
					t.Fatalf("op %d: LRU tick %d, flat %d", op, c.l2.tick, flat.tick)
				}
				if got, want := c.l2.ecc.Corrected(), flat.ecc.Corrected(); got != want {
					t.Fatalf("op %d: %d ECC corrections, flat %d", op, got, want)
				}
				var got, want []line
				for _, chunk := range c.l2.chunks {
					for _, l := range chunk {
						if l.valid {
							got = append(got, l)
						}
					}
				}
				for _, l := range flat.lines {
					if l.valid {
						want = append(want, l)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d: valid lines differ from the flat array's, in content or order", op)
				}
				var dirty []dirtyLine
				c.ForEachDirty(func(b mem.BlockAddr, data mem.Block) { dirty = append(dirty, dirtyLine{b, data}) })
				if !reflect.DeepEqual(dirty, flat.dirty()) {
					t.Fatalf("op %d: ForEachDirty sequence differs from the flat array's", op)
				}
				if got, want := c.ResidentBlocks(8), flat.resident(8); !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d: ResidentBlocks %v, flat %v", op, got, want)
				}
				for k, chunk := range c.l2.chunks {
					if (chunk != nil) != filled[k] {
						t.Fatalf("op %d: chunk %d allocated=%v, filled=%v", op, k, chunk != nil, filled[k])
					}
				}
			}

			const ops = 100_000
			for op := 0; op < ops; op++ {
				b := mem.BlockAddr(rng.Intn(span))
				addr := mem.Addr(uint64(b)*mem.BlockBytes + uint64(rng.Intn(mem.WordsPerBlock))*mem.WordBytes)
				switch k := rng.Intn(10); {
				case k < 3: // fill: a miss's data arrives
					if (c.l2.peek(b) == nil) != (flat.peek(b) == nil) {
						t.Fatalf("op %d: residency of %#x differs", op, b)
					}
					if flat.peek(b) != nil {
						continue // only a non-resident block is filled
					}
					want := flat.allocate(b, c.mshrs)
					got := c.allocate(b)
					filled[int(uint64(b)%uint64(g.sets))/chunkSets] = true
					if gw, ww := wayOf(t, c.l2.setOf(b), got), wayOf(t, flat.setOf(b), want); gw != ww {
						t.Fatalf("op %d: fill of %#x picked way %d, flat way %d", op, b, gw, ww)
					}
					if want == nil {
						continue
					}
					st := []State{Shared, Owned, Modified}[rng.Intn(3)]
					var data mem.Block
					for i := range data {
						data[i] = mem.Word(rng.Uint64())
					}
					dataValid := rng.Intn(5) > 0
					c.l2.install(got, b, st, data, dataValid)
					flat.install(want, b, st, data, dataValid)
				case k < 5:
					got, want := c.l2.lookup(b), flat.lookup(b)
					if (got == nil) != (want == nil) || got != nil && *got != *want {
						t.Fatalf("op %d: lookup(%#x) differs", op, b)
					}
				case k < 6:
					got, want := c.l2.peek(b), flat.peek(b)
					if (got == nil) != (want == nil) || got != nil && *got != *want {
						t.Fatalf("op %d: peek(%#x) differs", op, b)
					}
				case k < 7:
					if got, want := c.l2.peek(b), flat.peek(b); got != nil && want != nil {
						w := mem.Word(rng.Uint64())
						c.l2.writeWord(got, addr, w)
						flat.writeWord(want, addr, w)
					}
				case k < 8:
					if got, want := c.l2.peek(b), flat.peek(b); got != nil && want != nil {
						if rng.Intn(4) == 0 { // an upset for the read to correct
							bit := rng.Intn(mem.BlockBytes * 8)
							c.l2.flip(got, bit)
							flat.ecc.Flip(uint64(b), &want.data, bit)
						}
						if c.l2.readWord(got, addr) != flat.readWord(want, addr) {
							t.Fatalf("op %d: readWord(%#x) differs", op, addr)
						}
					}
				case k < 9:
					if got, want := c.l2.peek(b), flat.peek(b); got != nil && want != nil {
						c.l2.invalidate(got)
						flat.invalidate(want)
					}
				default: // an MSHR takes or releases the block
					if _, isBusy := c.mshrs[b]; isBusy {
						delete(c.mshrs, b)
					} else if len(c.mshrs) < g.ways {
						c.mshrs[b] = &mshr{block: b}
					}
				}
				if op%2500 == 0 {
					compare(op)
				}
			}
			compare(ops)

			c.Reset()
			for i := range flat.lines {
				if flat.lines[i].valid {
					flat.invalidate(&flat.lines[i])
				}
			}
			compare(ops + 1)
		})
	}
}

// flatTagFilter is the L1 tag filter as it was before set chunks: three
// parallel slices allocated up front, with an explicit valid bit. It
// survives only as the reference the chunked tagFilter is checked against.
type flatTagFilter struct {
	sets, ways int
	tags       []mem.BlockAddr
	valid      []bool
	lru        []uint64
	tick       uint64
}

func newFlatTagFilter(sets, ways int) *flatTagFilter {
	n := sets * ways
	return &flatTagFilter{sets: sets, ways: ways, tags: make([]mem.BlockAddr, n), valid: make([]bool, n), lru: make([]uint64, n)}
}

func (f *flatTagFilter) index(b mem.BlockAddr) (lo, hi int) {
	s := int(uint64(b) % uint64(f.sets))
	return s * f.ways, (s + 1) * f.ways
}

func (f *flatTagFilter) present(b mem.BlockAddr) bool {
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

func (f *flatTagFilter) insert(b mem.BlockAddr) {
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

func (f *flatTagFilter) invalidate(b mem.BlockAddr) {
	lo, hi := f.index(b)
	for i := lo; i < hi; i++ {
		if f.valid[i] && f.tags[i] == b {
			f.valid[i] = false
			return
		}
	}
}

// TestTagFilterMatchesFlat drives the chunked L1 tag filter and the flat
// reference with the same random presence checks, fills and
// invalidations. Every answer, and after each step every way's tag and
// LRU stamp (lru 0 standing for the reference's cleared valid bit), must
// agree; only a fill may allocate a chunk.
func TestTagFilterMatchesFlat(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{{1, 2}, {3, 1}, {17, 2}, {64, 2}, {256, 4}} {
		t.Run(fmt.Sprintf("%dx%d", g.sets, g.ways), func(t *testing.T) {
			f, flat := newTagFilter(g.sets, g.ways), newFlatTagFilter(g.sets, g.ways)
			rng := sim.NewRand(uint64(g.sets)<<8 | uint64(g.ways))
			span := 3 * g.sets * g.ways
			filled := make(map[int]bool) // chunks an insert has landed in
			for op := 0; op < 50_000; op++ {
				b := mem.BlockAddr(rng.Intn(span))
				switch k := rng.Intn(4); {
				case k < 2:
					if got, want := f.present(b), flat.present(b); got != want {
						t.Fatalf("op %d: present(%#x) = %v, flat %v", op, b, got, want)
					}
				case k < 3:
					f.insert(b)
					flat.insert(b)
					filled[int(uint64(b)%uint64(g.sets))/chunkSets] = true
				default:
					f.invalidate(b)
					flat.invalidate(b)
				}
				if f.tick != flat.tick {
					t.Fatalf("op %d: tick %d, flat %d", op, f.tick, flat.tick)
				}
				for k, chunk := range f.chunks {
					if (chunk != nil) != filled[k] {
						t.Fatalf("op %d: chunk %d allocated=%v, filled=%v", op, k, chunk != nil, filled[k])
					}
				}
				for s := 0; s < g.sets; s++ {
					chunk := f.chunks[s/chunkSets]
					for w := 0; w < g.ways; w++ {
						i := s*g.ways + w
						var got tag
						if chunk != nil {
							got = chunk[s%chunkSets*g.ways+w]
						}
						if (got.lru != 0) != flat.valid[i] || flat.valid[i] && (got.block != flat.tags[i] || got.lru != flat.lru[i]) {
							t.Fatalf("op %d: set %d way %d = %+v, flat valid %v tag %#x lru %d", op, s, w, got, flat.valid[i], flat.tags[i], flat.lru[i])
						}
					}
				}
			}
		})
	}
}
