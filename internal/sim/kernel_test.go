package sim

import (
	"testing"
	"testing/quick"
)

type counter struct {
	ticks  int
	lastAt Cycle
}

func (c *counter) Tick(now Cycle) {
	c.ticks++
	c.lastAt = now
}

func TestKernelStep(t *testing.T) {
	var k Kernel
	c := &counter{}
	k.Register(c)
	if k.Now() != 0 {
		t.Fatalf("fresh kernel Now() = %d, want 0", k.Now())
	}
	k.Step()
	k.Step()
	if c.ticks != 2 || c.lastAt != 1 || k.Now() != 2 {
		t.Errorf("after two steps: ticks=%d lastAt=%d now=%d", c.ticks, c.lastAt, k.Now())
	}
}

func TestKernelRun(t *testing.T) {
	var k Kernel
	c := &counter{}
	k.Register(c)
	if n := k.Run(100); n != 100 {
		t.Errorf("Run(100) = %d", n)
	}
	if c.ticks != 100 {
		t.Errorf("ticks = %d, want 100", c.ticks)
	}
}

func TestKernelRunUntil(t *testing.T) {
	var k Kernel
	c := &counter{}
	k.Register(c)
	ok := k.RunUntil(func() bool { return c.ticks >= 7 }, 1000)
	if !ok {
		t.Fatal("RunUntil did not report success")
	}
	if c.ticks != 7 {
		t.Errorf("ticks = %d, want 7", c.ticks)
	}
	if !k.RunUntil(func() bool { return true }, 0) {
		t.Error("RunUntil with already-true predicate and zero budget failed")
	}
	if k.RunUntil(func() bool { return false }, 10) {
		t.Error("RunUntil reported success on never-true predicate")
	}
}

func TestKernelTickOrder(t *testing.T) {
	var k Kernel
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.Register(tickFunc(func(Cycle) { order = append(order, i) }))
	}
	k.Step()
	for i, v := range order {
		if v != i {
			t.Fatalf("tick order %v, want ascending", order)
		}
	}
}

type tickFunc func(Cycle)

func (f tickFunc) Tick(now Cycle) { f(now) }

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRandSeedsDiffer(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds collided %d/100 times", same)
	}
}

func TestRandForkIndependence(t *testing.T) {
	r := NewRand(7)
	f1 := r.Fork(1)
	f2 := r.Fork(2)
	f1again := r.Fork(1)
	if f1.Uint64() != f1again.Uint64() {
		t.Error("Fork(1) is not reproducible")
	}
	if f1.Uint64() == f2.Uint64() {
		t.Error("Fork(1) and Fork(2) correlated")
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced stuck-at-zero stream")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(3)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRandBoolProbability(t *testing.T) {
	r := NewRand(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.23 || frac > 0.27 {
		t.Errorf("Bool(0.25) frequency = %v, want ~0.25", frac)
	}
}

func TestRandPanics(t *testing.T) {
	r := NewRand(1)
	assertPanics(t, "Intn(0)", func() { r.Intn(0) })
	assertPanics(t, "Uint64n(0)", func() { r.Uint64n(0) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}
