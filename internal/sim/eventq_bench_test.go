package sim

import "testing"

func BenchmarkEventQueueScheduleTick(b *testing.B) {
	var q EventQueue
	fn := func() {}
	for i := 0; i < 256; i++ { // warm the backing array
		q.At(Cycle(i), fn)
	}
	q.Tick(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := Cycle(256 + i)
		q.At(now+4, fn)
		q.Tick(now)
	}
}

func TestEventQueueSteadyStateAllocFree(t *testing.T) {
	var q EventQueue
	fired := 0
	fn := func() { fired++ }
	now := Cycle(0)
	step := func() {
		q.At(now+4, fn)
		q.Tick(now)
		now++
	}
	for i := 0; i < 256; i++ {
		step()
	}
	// One measured run of 2000 steps: AllocsPerRun truncates the mean
	// per run to an integer, so only a single run counts an allocation
	// that happens once in the 2000.
	batch := func() {
		for k := 0; k < 2000; k++ {
			step()
		}
	}
	if allocs := testing.AllocsPerRun(1, batch); allocs != 0 {
		t.Errorf("event queue steady state: %.0f allocs in 2000 steps, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("no events fired")
	}
}
