package coherence

import "testing"

// TestSpareTakesOnlyFittingChunks lends an array a spare holding a chunk
// of another geometry, then one of its own: the misfit is dropped and a
// new chunk made, the fitting one is taken cleared, and release returns
// both full chunks.
func TestSpareTakesOnlyFittingChunks(t *testing.T) {
	var sp Spare
	wide := make([]line, chunkSets*8)
	sp.lines.free = [][]line{wide}
	a := newCacheArray(4*chunkSets, 4)
	a.spare = &sp.lines
	a.fillSet(3)
	if got := a.chunks[0].entries; len(got) != chunkSets*4 || &got[0] == &wide[0] {
		t.Fatalf("chunk 0 has %d lines (want %d) or is the 8-way spare", len(got), chunkSets*4)
	}
	if len(sp.lines.free) != 0 {
		t.Errorf("the spare keeps %d chunks that do not fit", len(sp.lines.free))
	}

	fit := make([]line, chunkSets*4)
	fit[5] = line{valid: true, block: 7, state: Modified}
	sp.lines.free = [][]line{fit}
	a.fillSet(chunkSets)
	if got := a.chunks[1].entries; &got[0] != &fit[0] || got[5] != (line{}) {
		t.Errorf("chunk 1 is not the spare's chunk, cleared: %+v", got[5])
	}

	a.release()
	if len(sp.lines.free) != 2 || a.chunks[0].entries != nil || a.chunks[1].entries != nil {
		t.Errorf("release left the spare %d chunks and the array chunks %v, %v", len(sp.lines.free), a.chunks[0].entries != nil, a.chunks[1].entries != nil)
	}
}
