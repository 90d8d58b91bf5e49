package mem

// ECC models single-error-correct / double-error-detect (SEC-DED) codes on
// data blocks. The paper assumes ECC on all cache lines and main-memory
// DRAMs so that "the data block does not change unless it is written by a
// store" (Cache Correctness, Definition 2); without it, silent corruptions
// of cache or memory state would be unrecoverable.
//
// Rather than computing Hamming syndromes bit-for-bit, the model keeps a
// shadow copy of each protected block, which yields exactly the
// architectural behaviour of SEC-DED: a single flipped bit is corrected in
// place on the next access, and multi-bit damage is reported as an
// uncorrectable error. Protect must be called on every legitimate write
// (stores, fills, writebacks); Check on every read.
type ECC struct {
	shadow map[uint64]*Block

	corrected     uint64
	uncorrectable uint64

	// OnUncorrectable, if non-nil, is invoked when Check finds multi-bit
	// damage. The block is left corrupted (the code can detect but not
	// repair it).
	OnUncorrectable func(tag uint64)
}

// NewECC returns an ECC model with no protected blocks.
func NewECC() *ECC {
	return &ECC{shadow: make(map[uint64]*Block)}
}

// Protect records the current contents of the block as the code word. tag
// identifies the physical line (block address, or cache set/way encoding).
//
//dvmc:hotpath
func (e *ECC) Protect(tag uint64, data *Block) {
	s, ok := e.shadow[tag]
	if !ok {
		//dvmc:alloc-ok a line's first code word; every later Protect rewrites it in place
		s = new(Block)
		e.shadow[tag] = s
	}
	*s = *data
}

// Unprotect drops the code word for a line (line deallocated).
func (e *ECC) Unprotect(tag uint64) { delete(e.shadow, tag) }

// Check verifies the block against its code word, correcting a single
// flipped bit in place. It returns true if the data was clean or corrected.
//
//dvmc:hotpath
func (e *ECC) Check(tag uint64, data *Block) bool {
	s, ok := e.shadow[tag]
	if !ok {
		return true
	}
	diffBits := 0
	for i := range data {
		d := data[i] ^ s[i]
		for d != 0 {
			d &= d - 1
			diffBits++
			if diffBits > 1 {
				break
			}
		}
		if diffBits > 1 {
			break
		}
	}
	switch diffBits {
	case 0:
		return true
	case 1:
		*data = *s
		e.corrected++
		return true
	default:
		e.uncorrectable++
		if e.OnUncorrectable != nil {
			e.OnUncorrectable(tag)
		}
		return false
	}
}

// Corrected returns the number of single-bit errors corrected so far.
func (e *ECC) Corrected() uint64 { return e.corrected }

// Uncorrectable returns the number of multi-bit errors detected so far.
func (e *ECC) Uncorrectable() uint64 { return e.uncorrectable }
