package workload

import (
	"sort"
	"strings"
	"testing"

	"dvmc/internal/consistency"
	"dvmc/internal/mem"
	"dvmc/internal/proc"
)

// drive pulls n ops from a program, resolving Blocking ops with the
// given oracle (nil: always return 0). It returns the ops and the
// pending Result for the next call (as the pipeline would carry it).
func driveFrom(t *testing.T, p proc.Program, n int, prev proc.Result, oracle func(proc.Op) mem.Word) ([]proc.Op, proc.Result) {
	t.Helper()
	var ops []proc.Op
	for i := 0; i < n; i++ {
		op, ok := p.Next(prev)
		if !ok {
			t.Fatalf("program ended after %d ops", i)
		}
		ops = append(ops, op)
		prev = proc.Result{}
		if op.Blocking {
			v := mem.Word(0)
			if oracle != nil {
				v = oracle(op)
			}
			prev = proc.Result{Valid: true, Value: v}
		}
	}
	return ops, prev
}

func drive(t *testing.T, p proc.Program, n int, oracle func(proc.Op) mem.Word) []proc.Op {
	t.Helper()
	ops, _ := driveFrom(t, p, n, proc.Result{}, oracle)
	return ops
}

func TestAllSpecsValidate(t *testing.T) {
	for _, s := range All() {
		if err := s.Params.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"apache", "oltp", "jbb", "slash", "barnes", "uniform"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	// Case-insensitive: the CLIs accept "OLTP" and "Slash".
	for _, name := range []string{"OLTP", "Apache", "SLASH", "Uniform"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	_, err := ByName("nope")
	if err == nil {
		t.Fatal("ByName accepted an unknown workload")
	}
	// The error must list every known name, sorted, for CLI users.
	want := "apache, barnes, jbb, oltp, slash, uniform"
	if !strings.Contains(err.Error(), want) {
		t.Errorf("ByName error %q does not list known names %q", err, want)
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	if len(names) != 6 {
		t.Errorf("Names() = %v, want 6 entries", names)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, s := range All() {
		s := s.WithThreads(4).WithModel(consistency.TSO)
		a := s.NewProgram(1, 42)
		b := s.NewProgram(1, 42)
		opsA := drive(t, a, 500, nil)
		opsB := drive(t, b, 500, nil)
		for i := range opsA {
			if opsA[i].Addr != opsB[i].Addr || opsA[i].Kind != opsB[i].Kind {
				t.Fatalf("%s: op %d differs between identical runs", s.Name, i)
			}
		}
	}
}

func TestGeneratorThreadsDiffer(t *testing.T) {
	s := OLTP().WithThreads(4).WithModel(consistency.TSO)
	a := drive(t, s.NewProgram(0, 42), 200, nil)
	b := drive(t, s.NewProgram(1, 42), 200, nil)
	same := 0
	for i := range a {
		if a[i].Addr == b[i].Addr && a[i].Kind == b[i].Kind {
			same++
		}
	}
	if same > len(a)/2 {
		t.Errorf("threads 0 and 1 produced %d/%d identical ops", same, len(a))
	}
}

func TestSnapshotRestoreReplaysIdentically(t *testing.T) {
	for _, s := range All() {
		s := s.WithThreads(4).WithModel(consistency.TSO)
		g := s.NewProgram(2, 7)
		_, prev := driveFrom(t, g, 100, proc.Result{}, nil)
		snap := g.Snapshot(nil)
		first, _ := driveFrom(t, g, 50, prev, nil)
		g.Restore(snap)
		second, _ := driveFrom(t, g, 50, prev, nil)
		for i := range first {
			if first[i].Addr != second[i].Addr || first[i].Kind != second[i].Kind {
				t.Fatalf("%s: replay diverged at op %d", s.Name, i)
			}
		}
	}
}

func TestBits32FractionRoughlyMatches(t *testing.T) {
	s := Apache().WithThreads(4).WithModel(consistency.PSO)
	ops := drive(t, s.NewProgram(0, 9), 5000, nil)
	n32 := 0
	for _, op := range ops {
		if op.Bits32 {
			n32++
		}
	}
	frac := float64(n32) / float64(len(ops))
	want := s.Params.Bits32Frac
	if frac < want*0.7 || frac > want*1.3 {
		t.Errorf("32-bit fraction = %.3f, want ~%.2f", frac, want)
	}
}

func TestLockProtocolShape(t *testing.T) {
	// With the oracle granting every lock immediately (swap returns 0),
	// locked transactions follow RMW ... body ... store(0) to the lock.
	s := Slashcode().WithThreads(2).WithModel(consistency.TSO)
	g := s.NewProgram(0, 11)
	ops := drive(t, g, 2000, func(op proc.Op) mem.Word { return 0 })
	lockRMWs, unlocks := 0, 0
	for _, op := range ops {
		if op.Kind == proc.OpRMW && op.Addr >= lockBase && op.Addr < barrierBase {
			lockRMWs++
		}
		if op.Kind == proc.OpStore && op.Addr >= lockBase && op.Addr < barrierBase && op.Data == 0 {
			unlocks++
		}
	}
	if lockRMWs == 0 {
		t.Fatal("no lock acquisitions generated")
	}
	if diff := lockRMWs - unlocks; diff < 0 || diff > 1 {
		t.Errorf("acquisitions %d vs releases %d; must pair", lockRMWs, unlocks)
	}
}

func TestLockSpinWhenHeld(t *testing.T) {
	// If the lock is always held (swap returns 1, loads return 1), the
	// generator spins on loads of the lock word.
	s := Slashcode().WithThreads(2).WithModel(consistency.TSO)
	g := s.NewProgram(0, 13)
	ops := drive(t, g, 100, func(op proc.Op) mem.Word { return 1 })
	spins := 0
	for _, op := range ops {
		if op.Kind == proc.OpLoad && op.Addr >= lockBase && op.Addr < barrierBase {
			spins++
		}
	}
	if spins < 50 {
		t.Errorf("only %d spin loads while lock held", spins)
	}
}

func TestPSOEmitsStbarOnRelease(t *testing.T) {
	s := OLTP().WithThreads(2).WithModel(consistency.PSO)
	g := s.NewProgram(0, 17)
	ops := drive(t, g, 3000, func(proc.Op) mem.Word { return 0 })
	stbars := 0
	for _, op := range ops {
		if op.Kind == proc.OpMembar && op.Mask == consistency.SS {
			stbars++
		}
	}
	if stbars == 0 {
		t.Error("PSO-compiled workload emitted no Stbar")
	}
}

func TestRMOEmitsAcquireAndReleaseMembars(t *testing.T) {
	s := OLTP().WithThreads(2).WithModel(consistency.RMO)
	g := s.NewProgram(0, 17)
	ops := drive(t, g, 3000, func(proc.Op) mem.Word { return 0 })
	acq, rel := 0, 0
	for _, op := range ops {
		if op.Kind != proc.OpMembar {
			continue
		}
		switch op.Mask {
		case consistency.LL | consistency.LS:
			acq++
		case consistency.LS | consistency.SS:
			rel++
		}
	}
	if acq == 0 || rel == 0 {
		t.Errorf("RMO workload membars: acquire=%d release=%d", acq, rel)
	}
}

func TestTSOEmitsNoMembars(t *testing.T) {
	s := OLTP().WithThreads(2).WithModel(consistency.TSO)
	g := s.NewProgram(0, 17)
	ops := drive(t, g, 3000, func(proc.Op) mem.Word { return 0 })
	for _, op := range ops {
		if op.Kind == proc.OpMembar {
			t.Fatal("TSO-compiled lock workload emitted a membar")
		}
	}
}

func TestBarnesBarrierProtocol(t *testing.T) {
	// Single thread: the barrier target is round*1, so the RMW alone
	// satisfies it and phases cycle.
	s := Barnes().WithThreads(1).WithModel(consistency.TSO)
	g := s.NewProgram(0, 23)
	counter := mem.Word(0)
	ops := drive(t, g, 2000, func(op proc.Op) mem.Word {
		if op.Kind == proc.OpRMW {
			old := counter
			counter++
			return old
		}
		return counter
	})
	rmws, txns := 0, 0
	for _, op := range ops {
		if op.Kind == proc.OpRMW && op.Addr == barrierAddr() {
			rmws++
		}
		if op.EndTxn {
			txns++
		}
	}
	if rmws < 2 {
		t.Fatalf("barnes performed %d barrier RMWs, want several rounds", rmws)
	}
	if txns != rmws {
		t.Errorf("barrier rounds %d != transactions %d", rmws, txns)
	}
}

func TestBarnesSpinsUntilOthersArrive(t *testing.T) {
	// Two threads, but the oracle never lets the counter reach the
	// target: the generator must keep spinning on the barrier word.
	s := Barnes().WithThreads(2).WithModel(consistency.TSO)
	g := s.NewProgram(0, 29)
	ops := drive(t, g, 300, func(op proc.Op) mem.Word {
		if op.Kind == proc.OpRMW {
			return 0 // old value 0: arrived=1 < target=2
		}
		return 1 // counter stuck below target
	})
	spins := 0
	for _, op := range ops {
		if op.Kind == proc.OpLoad && op.Addr == barrierAddr() {
			spins++
		}
	}
	if spins < 100 {
		t.Errorf("barnes spun only %d times at an unsatisfied barrier", spins)
	}
}

func TestBarnesPartitionedWrites(t *testing.T) {
	s := Barnes().WithThreads(4).WithModel(consistency.TSO)
	g := s.NewProgram(2, 31).(*barnesGen)
	lo, size := g.partition()
	counter := mem.Word(0)
	ops := drive(t, g, 2000, func(op proc.Op) mem.Word {
		if op.Kind == proc.OpRMW {
			old := counter
			counter += 4 // pretend all threads arrive together
			return old + 3
		}
		return counter
	})
	for _, op := range ops {
		if op.Kind != proc.OpStore || op.Addr >= lockBase {
			continue
		}
		blk := int(op.Addr.Block())
		if blk < lo || blk >= lo+size {
			t.Fatalf("barnes wrote block %d outside its partition [%d,%d)", blk, lo, lo+size)
		}
	}
}

func TestRegionsDisjoint(t *testing.T) {
	if sharedAddr(4095, 7) >= lockBase {
		t.Error("shared region overlaps locks")
	}
	if lockAddr(1023) >= barrierBase {
		t.Error("lock region overlaps barrier")
	}
	if barrierAddr() >= privateBase {
		t.Error("barrier overlaps private regions")
	}
	if privateAddr(0, 1023, 7) >= privateAddr(1, 0, 0) {
		t.Error("private regions overlap between threads")
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{},
		{SharedBlocks: 1, PrivateBlocks: 1},
		{SharedBlocks: 1, PrivateBlocks: 1, Locks: 1},
		{SharedBlocks: 1, PrivateBlocks: 1, Locks: 1, OpsPerTxn: 1, ReadFrac: 2},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestUniformHasNoLocksOrMembars(t *testing.T) {
	s := Uniform(256, 0.5).WithThreads(2).WithModel(consistency.RMO)
	ops := drive(t, s.NewProgram(0, 3), 1000, nil)
	for _, op := range ops {
		if op.Kind == proc.OpRMW || op.Kind == proc.OpMembar {
			t.Fatalf("uniform emitted %v", op.Kind)
		}
	}
}
