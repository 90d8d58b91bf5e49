package mem

// ECC models single-error-correct / double-error-detect (SEC-DED) codes on
// data blocks. The paper assumes ECC on all cache lines and main-memory
// DRAMs so that "the data block does not change unless it is written by a
// store" (Cache Correctness, Definition 2); without it, silent corruptions
// of cache or memory state would be unrecoverable.
//
// A code is judged by its interface: a single upset bit is corrected on
// the line's next access, and multi-bit damage is detected but left in
// place. In this simulator bits are upset only by fault injection, so the
// model is a ledger of upsets (Flip) rather than a code word per line:
// an access (a read, or a partial write before it writes) corrects its
// line (Correct), a full write or a deallocation forgets the line's
// upsets (Forget), and a fault-free run pays only a length check per call.
// The zero value is ready to use.
type ECC struct {
	// upsets are the bits that differ from what the line's code word
	// vouches for, in injection order. A bit upset twice is restored and
	// leaves the ledger.
	upsets    []upset
	corrected uint64
}

// upset is one flipped bit of a protected line; tag identifies the line
// (its block address).
type upset struct {
	tag uint64
	bit int
}

// Flip upsets one bit of line tag's data, bypassing the code, as a
// particle strike does. bit is in [0, 512).
func (e *ECC) Flip(tag uint64, data *Block, bit int) {
	data[bit/64] ^= Word(1) << (bit % 64)
	for i, u := range e.upsets {
		if u == (upset{tag, bit}) {
			e.upsets = append(e.upsets[:i], e.upsets[i+1:]...)
			return
		}
	}
	e.upsets = append(e.upsets, upset{tag, bit})
}

// Correct is an access to line tag: a single upset is corrected in data
// and counted. It reports whether it corrected one.
func (e *ECC) Correct(tag uint64, data *Block) bool {
	if len(e.upsets) == 0 {
		return false
	}
	return e.correct(tag, data)
}

func (e *ECC) correct(tag uint64, data *Block) bool {
	at, n := 0, 0
	for i, u := range e.upsets {
		if u.tag == tag {
			at, n = i, n+1
		}
	}
	if n != 1 {
		return false // clean, or beyond SEC-DED's repair
	}
	bit := e.upsets[at].bit
	data[bit/64] ^= Word(1) << (bit % 64)
	e.upsets = append(e.upsets[:at], e.upsets[at+1:]...)
	e.corrected++
	return true
}

// Forget drops line tag's upsets: its data was replaced whole, or the
// line was deallocated, and the code word now vouches for what it holds.
func (e *ECC) Forget(tag uint64) {
	if len(e.upsets) == 0 {
		return
	}
	kept := e.upsets[:0]
	for _, u := range e.upsets {
		if u.tag != tag {
			kept = append(kept, u)
		}
	}
	e.upsets = kept
}

// Reset drops every upset, as a bulk rewrite of every line does.
func (e *ECC) Reset() { e.upsets = e.upsets[:0] }

// Clean reports that no line holds an upset.
func (e *ECC) Clean() bool { return len(e.upsets) == 0 }

// Corrected returns the number of single-bit errors corrected so far.
func (e *ECC) Corrected() uint64 { return e.corrected }
