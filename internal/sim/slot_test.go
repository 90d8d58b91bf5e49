package sim

import (
	"reflect"
	"testing"
)

// stamp is what a component reads of its Slot at one point of a run.
type stamp struct {
	Comp, Kind int // Kind: 0 its own tick acted, 1 a wake callback ran
	At         Cycle
	Last       Cycle
	Ticks      uint64
}

// model is a random Scheduled component built like the simulator's: a
// guard in front of its work (an own timer and a wake mark), and a Tick
// that ends by publishing the cycle the guard next lets it act. When it
// acts it draws, from its own stream, a new timer (near, on or next to a
// 64-cycle boundary, past the calendar's window, or Never), maybe a
// self-wake, and maybe a wake for a random peer, earlier or later in the
// table.
type model struct {
	id    int
	k     *Kernel
	slot  Slot
	peers []*model
	rng   *Rand
	timer Cycle
	woken bool
	log   *[]stamp
	calls int
}

func (m *model) Attach(s Slot) { m.slot = s }

func (m *model) note(kind int) {
	*m.log = append(*m.log, stamp{m.id, kind, m.k.Now(), m.slot.LastTick(), m.slot.Ticks()})
}

func (m *model) Tick(now Cycle) {
	m.calls++
	if m.woken || now >= m.timer {
		m.act(now)
	}
	if m.woken {
		m.slot.SleepUntil(now)
	} else {
		m.slot.SleepUntil(m.timer)
	}
}

func (m *model) act(now Cycle) {
	m.note(0)
	m.woken = false
	switch m.rng.Intn(8) {
	case 0, 1, 2:
		m.timer = Never
	case 3:
		// On a 64-cycle boundary, or next to one: the calendar's window
		// edges.
		m.timer = (now/wheelSlots+1)*wheelSlots + Cycle(m.rng.Intn(3)) - 1
	case 4:
		// Past the calendar's window.
		m.timer = now + Cycle(wheelSlots+m.rng.Intn(300))
	default:
		m.timer = now + Cycle(1+m.rng.Intn(30))
	}
	if m.rng.Intn(6) == 0 {
		m.woken = true
	}
	if m.rng.Intn(3) == 0 {
		m.peers[m.rng.Intn(len(m.peers))].poke()
	}
}

// poke hands m work from outside its tick: a callback that reads m's
// stamps, then marks and wakes it.
func (m *model) poke() {
	m.note(1)
	m.woken = true
	m.slot.Wake()
}

// alwaysDue is the reference run's wrapper: it keeps the Slot of the
// component it wraps, and the run wakes that slot before every Step, so
// the kernel calls the component every cycle.
type alwaysDue struct {
	Scheduled
	slot Slot
}

func (a *alwaysDue) Attach(s Slot) {
	a.slot = s
	a.Scheduled.Attach(s)
}

// runModel runs n random components for cycles cycles and returns every
// stamp they read and the Tick calls the kernel made.
func runModel(seed uint64, n, cycles int, reference bool) (log []stamp, calls int) {
	k := NewKernel(n)
	ms := make([]*model, n)
	var wrapped []*alwaysDue
	for i := range ms {
		ms[i] = &model{id: i, k: k, rng: NewRand(seed).Fork(uint64(i)), log: &log}
	}
	for _, m := range ms {
		m.peers = ms
		if reference {
			w := &alwaysDue{Scheduled: m}
			wrapped = append(wrapped, w)
			k.Register(w)
		} else {
			k.Register(m)
		}
	}
	between := NewRand(seed ^ 0xbe7)
	for c := 0; c < cycles; c++ {
		if between.Intn(5) == 0 {
			ms[between.Intn(n)].poke()
		}
		for _, w := range wrapped {
			w.slot.Wake()
		}
		k.Step()
	}
	for _, m := range ms {
		calls += m.calls
	}
	return log, calls
}

// TestKernelDueDrivenMatchesAlwaysTicked: skipping components until their
// published due cycle changes nothing a component can observe — when it
// acts, and the LastTick and Ticks it and its wake callbacks read — for
// random timers, self-wakes, wakes to earlier and later components within
// a Step and wakes between Steps.
func TestKernelDueDrivenMatchesAlwaysTicked(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		got, calls := runModel(seed, 12, 3000, false)
		want, refCalls := runModel(seed, 12, 3000, true)
		if !reflect.DeepEqual(got, want) {
			for i := range got {
				if i >= len(want) || got[i] != want[i] {
					t.Fatalf("seed %d: stamp %d is %+v, the always-ticked run read %+v", seed, i, got[i], want[min(i, len(want)-1)])
				}
			}
			t.Fatalf("seed %d: %d stamps, the always-ticked run read %d", seed, len(got), len(want))
		}
		if refCalls != 12*3000 {
			t.Fatalf("seed %d: the reference made %d Tick calls, want every component every cycle", seed, refCalls)
		}
		if calls*2 > refCalls {
			t.Fatalf("seed %d: the due-driven kernel made %d of %d Tick calls; it skipped too little to test anything", seed, calls, refCalls)
		}
	}
}

// TestSlotStampsFollowRegistrationOrder pins LastTick and Ticks for a
// component before, at and after the one being ticked, and between Steps.
func TestSlotStampsFollowRegistrationOrder(t *testing.T) {
	type read struct {
		Last  Cycle
		Ticks uint64
	}
	k := NewKernel(3)
	var slots [3]Slot
	var seen [][3]read
	readAll := func() [3]read {
		var r [3]read
		for i, s := range slots {
			r[i] = read{s.LastTick(), s.Ticks()}
		}
		return r
	}
	for i := range slots {
		i := i
		k.Register(&probe{attach: func(s Slot) { slots[i] = s }, tick: func(Cycle) {
			if i == 1 {
				seen = append(seen, readAll())
			}
		}})
	}
	if got, want := readAll(), [3]read{}; got != want {
		t.Fatalf("before the first Step: %v, want all zero", got)
	}
	k.Run(6)
	// Under index 1's tick: index 0 and 1 have been reached this cycle,
	// index 2 has not (and reads 0, not -1, on cycle 0).
	if want := [3]read{{0, 1}, {0, 1}, {0, 0}}; seen[0] != want {
		t.Fatalf("cycle 0 under index 1: %v, want %v", seen[0], want)
	}
	if want := [3]read{{5, 6}, {5, 6}, {4, 5}}; seen[5] != want {
		t.Fatalf("cycle 5 under index 1: %v, want %v", seen[5], want)
	}
	if got, want := readAll(), [3]read{{5, 6}, {5, 6}, {5, 6}}; got != want {
		t.Fatalf("between Steps after six: %v, want %v", got, want)
	}
	var zero Slot
	zero.Wake()
	zero.WakeAt(3)
	zero.SleepUntil(9)
	if zero.LastTick() != 0 || zero.Ticks() != 0 {
		t.Fatal("the zero Slot reads stamps")
	}
}

// probe is a Scheduled component made of two funcs; it stays due.
type probe struct {
	attach func(Slot)
	tick   func(Cycle)
}

func (p *probe) Attach(s Slot)  { p.attach(s) }
func (p *probe) Tick(now Cycle) { p.tick(now) }

// sleeper is a Scheduled component that is never due again.
type sleeper struct {
	slot  Slot
	ticks int
}

func (s *sleeper) Attach(sl Slot) { s.slot = sl }
func (s *sleeper) Tick(Cycle) {
	s.ticks++
	s.slot.SleepUntil(Never)
}

// TestKernelCountsWithSleepingComponents: Run and RunUntil count
// cycles, not calls, and a sleeping component still counts its Ticks.
func TestKernelCountsWithSleepingComponents(t *testing.T) {
	k := NewKernel(2)
	s := &sleeper{}
	c := &counter{}
	k.Register(s)
	k.Register(c)
	if n := k.Run(40); n != 40 {
		t.Fatalf("Run(40) = %d", n)
	}
	if n := k.Run(25); n != 25 {
		t.Fatalf("Run(25) = %d", n)
	}
	if !k.RunUntil(func() bool { return k.Now() == 90 }, 1000) || k.Now() != 90 {
		t.Fatalf("RunUntil stopped at cycle %d, want 90", k.Now())
	}
	if s.ticks != 1 || s.slot.Ticks() != 90 || c.ticks != 90 {
		t.Fatalf("sleeper called %d times with %d Ticks, counter %d, want 1, 90, 90", s.ticks, s.slot.Ticks(), c.ticks)
	}
	s.slot.WakeAt(95)
	k.Run(10)
	if s.ticks != 2 {
		t.Fatalf("a component woken for cycle 95 was called %d times by cycle 100", s.ticks)
	}
}

// alarm is a Scheduled component that rings when its cycle comes: state a
// RunUntil predicate can wait on without naming the time.
type alarm struct {
	slot Slot
	at   Cycle
	rang bool
}

func (a *alarm) Attach(s Slot) { a.slot = s }

func (a *alarm) Tick(now Cycle) {
	if now >= a.at {
		a.rang, a.at = true, Never
	}
	a.slot.SleepUntil(a.at)
}

func (a *alarm) set(c Cycle) {
	a.at, a.rang = c, false
	a.slot.SleepUntil(c)
}

// eval is one answer of a RunUntil predicate: in which call, on which
// cycle.
type eval struct {
	Call int
	At   Cycle
	Done bool
}

// ending is what one Run (Ran) or RunUntil (Done) call returned and
// where it left the clock.
type ending struct {
	Ran  uint64
	Done bool
	Now  Cycle
}

// everyCycle is RunUntil as the always-ticked reference runs it: the
// predicate before every Step, on every cycle.
func everyCycle(step func(), done func() bool, maxCycles uint64) bool {
	for i := uint64(0); i < maxCycles; i++ {
		if done() {
			return true
		}
		step()
	}
	return done()
}

// driveModel runs n random components and an alarm through calls random
// Run and RunUntil calls, poking a random component between calls. The
// due-driven side uses the kernel's Run and RunUntil, which skip idle
// cycles; the reference wakes every component before each Step and asks
// the predicate on every cycle. It returns every stamp read, every
// predicate answer and how each call ended.
func driveModel(seed uint64, n, calls int, reference bool) (log []stamp, evals []eval, ends []ending) {
	k := NewKernel(n + 1)
	var wrapped []*alwaysDue
	register := func(c Scheduled) {
		if reference {
			w := &alwaysDue{Scheduled: c}
			wrapped = append(wrapped, w)
			c = w
		}
		k.Register(c)
	}
	ms := make([]*model, n)
	for i := range ms {
		ms[i] = &model{id: i, k: k, rng: NewRand(seed).Fork(uint64(i)), log: &log}
	}
	for _, m := range ms {
		m.peers = ms
		register(m)
	}
	al := &alarm{at: Never}
	register(al)
	step := func() {
		for _, w := range wrapped {
			w.slot.Wake()
		}
		k.Step()
	}
	between := NewRand(seed ^ 0x5eed)
	for c := 0; c < calls; c++ {
		ms[between.Intn(n)].poke()
		var done func() bool
		var budget uint64
		switch between.Intn(4) {
		case 0:
			budget = uint64(between.Intn(300))
		case 1:
			target := len(log) + 1 + between.Intn(40)
			done = func() bool { return len(log) >= target }
			budget = uint64(between.Intn(400))
		case 2:
			// A budget near 2^64 saturates: the run ends when the alarm
			// rings, as it would stepping every cycle.
			al.set(k.Now() + Cycle(between.Intn(500)))
			done = func() bool { return al.rang }
			budget = ^uint64(0) - uint64(between.Intn(3))
		case 3:
			al.set(k.Now() + Cycle(between.Intn(200)))
			done = func() bool { return al.rang }
			budget = uint64(between.Intn(200))
		}
		start := k.Now()
		if done == nil {
			var ran uint64
			if reference {
				everyCycle(step, func() bool { return false }, budget)
				ran = uint64(k.Now() - start)
			} else {
				ran = k.Run(budget)
			}
			ends = append(ends, ending{Ran: ran, Now: k.Now()})
			continue
		}
		ask := func() bool {
			d := done()
			evals = append(evals, eval{c, k.Now(), d})
			return d
		}
		var ok bool
		if reference {
			ok = everyCycle(step, ask, budget)
		} else {
			ok = k.RunUntil(ask, budget)
		}
		ends = append(ends, ending{Done: ok, Now: k.Now()})
	}
	return log, evals, ends
}

// TestKernelRunUntilMatchesAlwaysTicked: Run and RunUntil, which jump the
// clock over cycles in which nothing is due, leave every stamp, every
// predicate answer they ask for and every return value and end cycle as
// an always-ticked kernel asking the predicate on every cycle — with one
// and two words of components, dues on and next to the calendar's window
// edges, past it and Never, and budgets near 2^64.
func TestKernelRunUntilMatchesAlwaysTicked(t *testing.T) {
	for _, n := range []int{12, 100} {
		asked, refAsked := 0, 0
		for seed := uint64(1); seed <= 6; seed++ {
			log, evals, ends := driveModel(seed, n, 400, false)
			refLog, refEvals, refEnds := driveModel(seed, n, 400, true)
			for i := range min(len(log), len(refLog)) {
				if log[i] != refLog[i] {
					t.Fatalf("n=%d seed %d: stamp %d is %+v, the always-ticked run read %+v", n, seed, i, log[i], refLog[i])
				}
			}
			if len(log) != len(refLog) {
				t.Fatalf("n=%d seed %d: %d stamps, the always-ticked run read %d", n, seed, len(log), len(refLog))
			}
			if !reflect.DeepEqual(ends, refEnds) {
				t.Fatalf("n=%d seed %d: calls ended %v, the always-ticked run %v", n, seed, ends, refEnds)
			}
			ref := map[[2]uint64]bool{}
			for _, e := range refEvals {
				ref[[2]uint64{uint64(e.Call), uint64(e.At)}] = e.Done
			}
			for _, e := range evals {
				if want, ok := ref[[2]uint64{uint64(e.Call), uint64(e.At)}]; !ok || want != e.Done {
					t.Fatalf("n=%d seed %d: call %d asked at cycle %d got %v; the always-ticked run answered %v (asked: %v)", n, seed, e.Call, e.At, e.Done, want, ok)
				}
			}
			asked += len(evals)
			refAsked += len(refEvals)
		}
		if asked*2 > refAsked {
			t.Errorf("n=%d: RunUntil asked its predicate %d times, the reference %d: it skipped too little to test anything", n, asked, refAsked)
		}
	}
}

// pulse is a Scheduled component that acts once per period at its phase
// and wakes a peer when it does: with phases bunched at the start of the
// period, a run has bursts of wakes and sleeps and, between them, idle
// stretches longer than the calendar's window.
type pulse struct {
	slot   Slot
	next   Cycle
	period Cycle
	peer   *pulse
}

func (p *pulse) Attach(s Slot) { p.slot = s }

func (p *pulse) Tick(now Cycle) {
	if now >= p.next {
		p.next += p.period
		p.peer.slot.Wake()
	}
	p.slot.SleepUntil(p.next)
}

// TestKernelSteadyStateAllocFree: a kernel sized by NewKernel allocates
// its calendar once, and a RunUntil over two pulse periods (eight turns
// of the calendar, with refills, wakes, sleeps and idle skips) over two
// words of components allocates nothing.
func TestKernelSteadyStateAllocFree(t *testing.T) {
	const n, period = 101, 4 * wheelSlots
	ps := make([]*pulse, n)
	for i := range ps {
		ps[i] = &pulse{next: Cycle(i % 50), period: period}
	}
	for i, p := range ps {
		p.peer = ps[(i*7+3)%n]
	}
	if allocs := testing.AllocsPerRun(10, func() {
		k := NewKernel(n)
		for _, p := range ps {
			k.Register(p)
		}
	}); allocs > 3 {
		t.Errorf("NewKernel(%d) and %d Registers: %.0f allocations, want 3 (kernel, table, calendar)", n, n, allocs)
	}
	k := NewKernel(n)
	for _, p := range ps {
		k.Register(p)
	}
	never := func() bool { return false }
	k.RunUntil(never, 2*period)
	if allocs := testing.AllocsPerRun(100, func() { k.RunUntil(never, 2*period) }); allocs != 0 {
		t.Errorf("RunUntil over %d cycles of %d components: %.2f allocs/op, want 0", 2*period, n, allocs)
	}
}
