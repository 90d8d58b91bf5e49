// Package core implements DVMC: dynamic verification of memory
// consistency (Meixner & Sorin, DSN 2006). It provides the three checkers
// whose invariants together guarantee memory consistency:
//
//   - Uniprocessor Ordering checker (Section 4.1): replays memory
//     operations at commit against a Verification Cache (VC) and compares
//     load values with the original out-of-order execution.
//   - Allowable Reordering checker (Section 4.2): verifies that the
//     reorderings between program order and perform order are within the
//     consistency model's ordering table, using per-class max{OP}
//     sequence-number registers, plus lost-operation detection.
//   - Cache Coherence checker (Section 4.3): verifies the epoch
//     invariants (SWMR and data propagation) with Cache Epoch Tables,
//     Memory Epoch Tables, and Inform-Epoch messages carrying CRC-16
//     block signatures over 16-bit logical timestamps.
//
// The package consumes the event streams exposed by internal/coherence
// and internal/proc; it adds no new states to the coherence protocol and
// operates off the critical path, exactly as the paper requires.
package core

// Time16 is a 16-bit logical timestamp as stored in CET and MET entries
// and carried in Inform-Epoch messages. The paper keeps logical times
// small (16 bits) to bound storage and error-detection latency, and
// scrubs long-lived epochs before wraparound can make old stamps
// ambiguous. It is a struct so that a raw relational comparison, which
// is wrong across the wraparound, does not compile: widen with
// Reconstruct, or order two stamps with Before.
type Time16 struct{ v uint16 }

// halfRange is the reconstruction window: a Time16 is unambiguous as long
// as the true value lies within half the 16-bit range of a known
// reference.
const halfRange = 1 << 15

// Wrap truncates a full logical time to its 16-bit wire representation.
func Wrap(t uint64) Time16 { return Time16{uint16(t)} }

// Reconstruct returns the full logical time congruent to t (mod 2^16)
// that is closest to the reference near. The scrubbing protocol
// guarantees every live timestamp is within half the range of the
// receiving controller's clock, making this exact.
func (t Time16) Reconstruct(near uint64) uint64 {
	base := near &^ 0xffff
	cand := base | uint64(t.v)
	// Choose among cand-2^16, cand, cand+2^16 whichever is closest to near.
	best := cand
	bestDist := dist(cand, near)
	if cand >= 1<<16 {
		if d := dist(cand-1<<16, near); d < bestDist {
			best, bestDist = cand-1<<16, d
		}
	}
	if d := dist(cand+1<<16, near); d < bestDist {
		best = cand + 1<<16
	}
	return best
}

func dist(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// Before reports whether a precedes b under modular 16-bit comparison,
// valid while both stamps are within half the range of each other.
func Before(a, b Time16) bool { return int16(a.v-b.v) < 0 }
