// Package sim provides the cycle-driven discrete-event simulation kernel on
// which the multiprocessor substrate runs: a global clock, deterministic
// pseudo-random streams for workload perturbation, and a component
// registry walked in a fixed order each cycle, ticking the components
// whose due cycle has come.
//
// The paper evaluates DVMC with cycle-accurate full-system simulation
// (Simics + GEMS + TFSim); this kernel is the equivalent substrate built
// from scratch. Determinism is a first-class property: a simulation is a
// pure function of its configuration and seed, which the test suite relies
// on heavily.
package sim

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

// Kernel owns the global clock and the registered components.
// The zero value is a kernel at cycle 0 with no components.
type Kernel struct {
	now   Cycle
	table []entry
	// ticking is 1 + the index of the component whose Tick is running,
	// 0 outside one: the split LastTick and Ticks derive their answers
	// from.
	ticking int

	// stopped is set by Stop to end a Run early.
	stopped bool
}

// NewKernel returns a kernel whose table holds n components without
// growing.
func NewKernel(n int) *Kernel { return &Kernel{table: make([]entry, 0, n)} }

// Register adds a component to the tick list, due at once. Components are
// ticked in registration order, which the system assembler chooses
// deliberately: network delivery first, then memory controllers, cache
// controllers, processors, and checkers, so that a message sent in cycle
// T is never observed before T+latency. A Scheduled component receives
// its Slot here. Register before the first Step: Ticks counts from
// cycle 0.
func (k *Kernel) Register(c Clockable) {
	k.table = append(k.table, entry{c: c})
	if s, ok := c.(Scheduled); ok {
		s.Attach(Slot{k: k, i: len(k.table) - 1})
	}
}

// Now returns the current cycle.
func (k *Kernel) Now() Cycle { return k.now }

// Step advances simulated time by one cycle, ticking every component
// whose due cycle has come. Due cycles are read as the walk reaches them,
// so a wake sent to a later component during the walk is seen this
// cycle, one sent to an earlier component the next.
func (k *Kernel) Step() {
	now := k.now
	for i := range k.table {
		if k.table[i].due <= now {
			k.ticking = i + 1
			k.table[i].c.Tick(now)
		}
	}
	k.ticking = 0
	k.now++
}

// Stop makes the innermost Run or RunUntil return after the current cycle.
func (k *Kernel) Stop() { k.stopped = true }

// Run advances the clock n cycles, or fewer if Stop is called.
// It returns the number of cycles actually simulated.
func (k *Kernel) Run(n uint64) uint64 {
	k.stopped = false
	var i uint64
	for ; i < n && !k.stopped; i++ {
		k.Step()
	}
	return i
}

// RunUntil steps the clock until done returns true or maxCycles elapse.
// It reports whether done became true.
func (k *Kernel) RunUntil(done func() bool, maxCycles uint64) bool {
	k.stopped = false
	for i := uint64(0); i < maxCycles && !k.stopped; i++ {
		if done() {
			return true
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
	if s.k != nil {
		s.k.table[s.i].due = 0
	}
}

// WakeAt makes the component due at cycle c at the latest.
func (s Slot) WakeAt(c Cycle) {
	if s.k != nil && c < s.k.table[s.i].due {
		s.k.table[s.i].due = c
	}
}

// SleepUntil publishes c as the component's due cycle, replacing any
// earlier one: a Tick ends with it, naming the first cycle its guard
// would let it act.
func (s Slot) SleepUntil(c Cycle) {
	if s.k != nil {
		s.k.table[s.i].due = c
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
