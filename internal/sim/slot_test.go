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
// acts it draws, from its own stream, a new timer, maybe a self-wake and
// wakes for random peers, earlier or later in the table.
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
	if m.rng.Intn(4) == 0 {
		m.timer = Never
	} else {
		m.timer = now + Cycle(1+m.rng.Intn(30))
	}
	if m.rng.Intn(6) == 0 {
		m.woken = true
	}
	for n := m.rng.Intn(3); n > 0; n-- {
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

// TestKernelCountsWithSleepingComponents: Run, RunUntil and Stop count
// cycles, not calls, and a sleeping component still counts its Ticks.
func TestKernelCountsWithSleepingComponents(t *testing.T) {
	k := NewKernel(2)
	s := &sleeper{}
	c := &counter{kernel: k, stopAt: 40}
	k.Register(s)
	k.Register(c)
	if n := k.Run(100); n != 40 {
		t.Fatalf("Run stopped after %d cycles, want 40", n)
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

// TestKernelSteadyStateAllocFree: a Step over 50 sleeping components
// allocates nothing.
func TestKernelSteadyStateAllocFree(t *testing.T) {
	k := NewKernel(50)
	for i := 0; i < 50; i++ {
		k.Register(&sleeper{})
	}
	k.Step()
	if allocs := testing.AllocsPerRun(1000, k.Step); allocs != 0 {
		t.Errorf("Step over 50 sleeping components: %.2f allocs/op, want 0", allocs)
	}
}
