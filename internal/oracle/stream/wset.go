package stream

// wset is a set of (word, value) points: the value rule's write history
// and recovery folds. Open addressing with linear probing in a
// power-of-two table kept at most half full, so a probe run is short and a
// miss ends at the first free slot. The zero key {0, 0} marks a free slot,
// so the set holds it in a flag instead. Never iterated: membership is all
// the value rule asks.
type wset struct {
	slots []wkey
	n     int  // occupied slots
	zero  bool // whether {0, 0} is in the set
	first int  // slots of the first table, a power of two; 16 when zero
}

// hash mixes both halves of the key into every bit, so addresses that
// share low bits and values that differ only in high bits spread.
func (k wkey) hash() uint64 {
	h := uint64(k.addr)*0x9e3779b97f4a7c15 ^ uint64(k.val)
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	return h ^ h>>32
}

// slot returns the index of k, or of the free slot where its probe ends.
// The table must not be empty.
func (s *wset) slot(k wkey) int {
	mask := len(s.slots) - 1
	i := int(k.hash()) & mask
	for s.slots[i] != k && s.slots[i] != (wkey{}) {
		i = (i + 1) & mask
	}
	return i
}

// has reports whether k is in the set.
func (s *wset) has(k wkey) bool {
	if k == (wkey{}) {
		return s.zero
	}
	return len(s.slots) > 0 && s.slots[s.slot(k)] == k
}

// add inserts k and reports whether it was not already there.
func (s *wset) add(k wkey) bool {
	if k == (wkey{}) {
		added := !s.zero
		s.zero = true
		return added
	}
	if len(s.slots) == 0 {
		// The first insert sizes the table; it then doubles only with the
		// distinct points written.
		s.grow()
	}
	i := s.slot(k)
	if s.slots[i] == k {
		return false
	}
	if 2*(s.n+1) > len(s.slots) {
		// Doubling is bounded by distinct (addr, value) pairs, not trace
		// length.
		s.grow()
		i = s.slot(k)
	}
	s.slots[i] = k
	s.n++
	return true
}

// grow doubles the table (to first, or 16, slots from empty) and
// re-places every key.
func (s *wset) grow() {
	old := s.slots
	s.slots = make([]wkey, max(16, s.first, 2*len(old)))
	for _, k := range old {
		if k != (wkey{}) {
			s.slots[s.slot(k)] = k
		}
	}
}
