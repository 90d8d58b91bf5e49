// Package sim provides the cycle-driven discrete-event simulation kernel on
// which the multiprocessor substrate runs: a global clock, deterministic
// pseudo-random streams for workload perturbation, and a component
// registry whose components are ticked, in a fixed order, on the cycles
// their published due cycle has come — found through a due calendar, so
// cycles in which nothing is due are skipped.
//
// The paper evaluates DVMC with cycle-accurate full-system simulation
// (Simics + GEMS + TFSim); this kernel is the equivalent substrate built
// from scratch. Determinism is a first-class property: a simulation is a
// pure function of its configuration and seed, which the test suite relies
// on heavily.
package sim

import "math/bits"

// Cycle is a point in simulated time, measured in processor clock cycles.
type Cycle uint64

// Never is a due cycle that does not come: a component that publishes it
// is ticked again only when something wakes it.
const Never = ^Cycle(0)

// Clockable is a hardware component driven by the global clock. Tick is
// called at most once per cycle, in registration order; a Clockable that
// is not Scheduled is called every cycle.
type Clockable interface {
	Tick(now Cycle)
}

// Scheduled is a Clockable that publishes the cycle it is next due
// through the Slot the kernel hands it at Register. The kernel skips its
// Tick until that cycle comes or something wakes it.
type Scheduled interface {
	Clockable
	Attach(Slot)
}

// entry is one registered component and the first cycle it is due.
type entry struct {
	c   Clockable
	due Cycle
}

// wheelSlots is the calendar's span in cycles: one bitset per cycle of
// the window [limit-wheelSlots, limit).
const wheelSlots = 64

// Kernel owns the global clock and the registered components.
// The zero value is a kernel at cycle 0 with no components.
//
// The table's due cycles are the truth; the calendar only says where to
// look. It is a wheel of wheelSlots bitsets over component indices, one
// per cycle of an aligned window that holds now: a component that can be
// ticked first in a cycle of the window has its bit set in that cycle's
// slot (publish keeps this). Step pops the current slot in
// index order and ticks each component whose due cycle has come; a bit
// whose due cycle has since moved later is stale and dropped. A due cycle
// at or past the window's end waits for the refill that opens the next
// window, which reads every due cycle once.
type Kernel struct {
	now   Cycle
	table []entry
	// ticking is 1 + the index of the component whose Tick is running,
	// 0 outside one: the split LastTick and Ticks derive their answers
	// from, and the first cycle a wake to an index can take effect.
	ticking int

	// wheel is the calendar, word-major: bit b of wheel[w*wheelSlots+s]
	// marks component w*64+b for the window's cycle in slot s (cycle mod
	// wheelSlots), so a word of slots is added per 64 components. occ
	// has bit s set while slot s may hold a mark. limit is the window's
	// end; now >= limit means a refill is due.
	wheel []uint64
	occ   uint64
	limit Cycle
}

// NewKernel returns a kernel whose table and calendar hold n components
// without growing.
func NewKernel(n int) *Kernel { return new(Kernel).Init(n) }

// Init makes k what NewKernel(n) builds, on k's table and calendar where
// they fit: how a retired system's kernel is reused.
func (k *Kernel) Init(n int) *Kernel {
	table, wheel := k.table[:cap(k.table)], k.wheel
	if words := (n + 63) / 64; len(table) < n || len(wheel) != words*wheelSlots {
		table, wheel = make([]entry, n), make([]uint64, words*wheelSlots)
	}
	clear(wheel)
	*k = Kernel{table: table[:0], wheel: wheel}
	return k
}

// Register adds a component to the tick list, due at once. Components are
// ticked in registration order, which the system assembler chooses
// deliberately: network delivery first, then memory controllers, cache
// controllers, processors, and checkers, so that a message sent in cycle
// T is never observed before T+latency. A Scheduled component receives
// its Slot here. Register before the first Step: Ticks counts from
// cycle 0.
func (k *Kernel) Register(c Clockable) {
	k.table = append(k.table, entry{c: c})
	if len(k.table) > len(k.wheel) {
		// One more word per slot: 64 more components.
		k.wheel = append(k.wheel, make([]uint64, wheelSlots)...)
	}
	i := len(k.table) - 1
	k.mark(i, k.now)
	if s, ok := c.(Scheduled); ok {
		s.Attach(Slot{k: k, i: i})
	}
}

// Now returns the current cycle.
func (k *Kernel) Now() Cycle { return k.now }

// mark enters component i in the calendar for cycle c, a cycle a walk can
// still reach. A cycle at or past the window's end is left to the refill.
func (k *Kernel) mark(i int, c Cycle) {
	if c < k.limit {
		s := int(c % wheelSlots)
		k.wheel[i/64*wheelSlots+s] |= 1 << (i % 64)
		k.occ |= 1 << s
	}
}

// publish makes c component i's due cycle. For every component but the
// one ticking (Step marks that one after its Tick), the calendar holds a
// mark for the first cycle a walk could tick it, max(due, first), when
// that cycle is in the window; first is this cycle if the walk has not
// passed i yet (or no Step is running), the next one otherwise. So
// publish marks only when that cycle moves.
func (k *Kernel) publish(i int, c Cycle) {
	first := k.now
	if i < k.ticking {
		first++
	}
	e := &k.table[i]
	was := max(e.due, first)
	e.due = c
	if c = max(c, first); c != was {
		k.mark(i, c)
	}
}

// refill opens the aligned window of wheelSlots cycles that holds now,
// marks every component due in it, and returns the first cycle any
// component is due.
func (k *Kernel) refill() Cycle {
	k.limit = k.now&^(wheelSlots-1) + wheelSlots
	if k.limit < k.now {
		k.limit = Never
	}
	next := Never
	for i := range k.table {
		c := max(k.table[i].due, k.now)
		next = min(next, c)
		k.mark(i, c)
	}
	return next
}

// Step advances simulated time by one cycle, ticking every component
// whose due cycle has come, in index order. A wake sent during the Step
// to a later component is seen this cycle, one sent to an earlier
// component (or to the one ticking) the next.
func (k *Kernel) Step() {
	now := k.now
	if now >= k.limit {
		k.refill()
	}
	s := int(now % wheelSlots)
	for base := 0; base < len(k.table); base += 64 {
		// Re-read the word after every tick: a wake to a later index in
		// it lands here this cycle.
		word := &k.wheel[base/64*wheelSlots+s]
		for *word != 0 {
			b := bits.TrailingZeros64(*word)
			*word &^= 1 << b
			i := base + b
			if e := &k.table[i]; e.due <= now {
				k.ticking = i + 1
				e.c.Tick(now)
				if e.due <= now+1 {
					// Due next cycle, or still due: it published no
					// later cycle, and publish took the mark for
					// granted.
					k.mark(i, now+1)
				}
			}
		}
	}
	k.occ &^= 1 << s
	k.ticking = 0
	k.now++
}

// idle advances now over the cycles in which no component is due,
// stopping at the first one that may have work or at end.
func (k *Kernel) idle(end Cycle) {
	for k.now < end {
		if k.now >= k.limit {
			if next := k.refill(); next >= k.limit {
				// Nothing due in the whole window: jump to the first
				// due cycle and open the window there.
				k.now = min(next, end)
				k.limit = k.now
				continue
			}
		}
		// Bit j is the slot of cycle now+j: occ holds only slots of
		// cycles in [now, limit), so no bit aliases an earlier cycle.
		if ahead := bits.RotateLeft64(k.occ, -int(k.now%wheelSlots)); ahead != 0 {
			k.now = min(k.now+Cycle(bits.TrailingZeros64(ahead)), end)
			return
		}
		k.now = min(k.limit, end)
	}
}

// Run advances the clock n cycles (saturating at Never) and returns the
// number of cycles simulated.
func (k *Kernel) Run(n uint64) uint64 {
	start := k.now
	k.RunUntil(func() bool { return false }, n)
	return uint64(k.now - start)
}

// RunUntil steps the clock until done returns true or maxCycles elapse
// (saturating at Never). It reports whether done became
// true.
//
// Cycles in which no component is due are skipped, not stepped, so done
// is evaluated after every Step and on the first cycle of each idle
// stretch, not on every cycle. It must therefore depend on simulated
// state only, which cannot change in an idle cycle: a condition on the
// time itself is a deadline, passed as maxCycles of a RunUntil that ends
// there.
func (k *Kernel) RunUntil(done func() bool, maxCycles uint64) bool {
	end := k.now + Cycle(maxCycles)
	if end < k.now {
		end = Never
	}
	for k.now < end {
		if done() {
			return true
		}
		// done was just false, and nothing changes until the next Step.
		if k.idle(end); k.now == end {
			return false
		}
		k.Step()
	}
	return done()
}

// Slot is a Scheduled component's place in its kernel: where it publishes
// its due cycle and reads the time stamps it would otherwise store. The
// zero Slot belongs to no kernel: its wakes do nothing and its stamps
// read 0, so a component can still be ticked by hand.
//
// The stamps are derived from registration order. A component the kernel
// reached in every Step would hold, as "now of my last tick", exactly
// LastTick: the current cycle if its index is at or before the one being
// ticked, the one before otherwise — which is the one-cycle lag a
// callback sees when it runs under an earlier component's tick — and 0
// before the first Step. Ticks is how many Steps have reached its index.
// Neither depends on whether the kernel actually called it.
type Slot struct {
	k *Kernel
	i int
}

// Wake makes the component due at once: later this cycle if its index is
// after the one being ticked, else at the next Step.
func (s Slot) Wake() {
	// A component already due (due <= now) stays due as it is.
	if s.k != nil && s.k.table[s.i].due > s.k.now {
		s.k.publish(s.i, 0)
	}
}

// WakeAt makes the component due at cycle c at the latest.
func (s Slot) WakeAt(c Cycle) {
	if s.k != nil && c < s.k.table[s.i].due {
		s.k.publish(s.i, c)
	}
}

// SleepUntil publishes c as the component's due cycle, replacing any
// earlier one: a Tick ends with it, naming the first cycle its guard
// would let it act.
func (s Slot) SleepUntil(c Cycle) {
	if s.k != nil && c != s.k.table[s.i].due {
		s.k.publish(s.i, c)
	}
}

// Ticks returns how many Steps have reached the component's index.
func (s Slot) Ticks() uint64 {
	if s.k == nil {
		return 0
	}
	n := uint64(s.k.now)
	if s.i < s.k.ticking {
		n++
	}
	return n
}

// LastTick returns the cycle of the last Step that reached the
// component's index (0 before the first).
func (s Slot) LastTick() Cycle {
	if n := s.Ticks(); n > 0 {
		return Cycle(n - 1)
	}
	return 0
}
