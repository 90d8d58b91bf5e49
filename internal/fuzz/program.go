package fuzz

import (
	"fmt"

	"dvmc/internal/consistency"
	"dvmc/internal/mem"
	"dvmc/internal/proc"
	"dvmc/internal/workload"
)

// Op kinds, serialized as strings so corpus files stay human-readable.
const (
	KindLoad   = "load"
	KindStore  = "store"
	KindRMW    = "rmw"
	KindMembar = "membar"
)

// RMW transform names. Transforms must be drawn from this fixed registry
// because Go functions do not serialize; each name maps to a pure
// mem.Word -> mem.Word function.
const (
	RMWSet1 = "set1" // test-and-set: always writes 1
	RMWInc  = "inc"  // fetch-and-increment
	RMWXor  = "xor"  // xor with a fixed pattern
)

// rmwTransforms is the serializable RMW registry.
var rmwTransforms = map[string]func(mem.Word) mem.Word{
	RMWSet1: func(mem.Word) mem.Word { return 1 },
	RMWInc:  func(w mem.Word) mem.Word { return w + 1 },
	RMWXor:  func(w mem.Word) mem.Word { return w ^ 0x5555_5555_5555_5555 },
}

// RMWNames lists the registry names in a fixed order (generator choices
// index into it).
var RMWNames = []string{RMWSet1, RMWInc, RMWXor}

// Op is one operation of a fuzz program, the serializable counterpart of
// proc.Op. Addresses are absolute word-aligned byte addresses.
type Op struct {
	Kind   string `json:"kind"`
	Addr   uint64 `json:"addr,omitempty"`   // loads, stores, RMWs
	Data   uint64 `json:"data,omitempty"`   // store value
	RMW    string `json:"rmw,omitempty"`    // RMW transform name
	Mask   uint8  `json:"mask,omitempty"`   // membar mask bits (LL|LS|SL|SS)
	Gap    int    `json:"gap,omitempty"`    // non-memory instructions before the op
	Bits32 bool   `json:"bits32,omitempty"` // TSO-forced 32-bit code (Table 8)
}

// Validate reports structural errors in one op.
func (o Op) Validate() error {
	switch o.Kind {
	case KindLoad, KindStore:
		if o.Addr%mem.WordBytes != 0 {
			return fmt.Errorf("fuzz: %s at unaligned address %#x", o.Kind, o.Addr)
		}
	case KindRMW:
		if o.Addr%mem.WordBytes != 0 {
			return fmt.Errorf("fuzz: rmw at unaligned address %#x", o.Addr)
		}
		if _, ok := rmwTransforms[o.RMW]; !ok {
			return fmt.Errorf("fuzz: unknown rmw transform %q", o.RMW)
		}
	case KindMembar:
		if o.Mask == 0 || o.Mask > uint8(consistency.FullMask) {
			return fmt.Errorf("fuzz: membar with mask %#x", o.Mask)
		}
	default:
		return fmt.Errorf("fuzz: unknown op kind %q", o.Kind)
	}
	if o.Gap < 0 {
		return fmt.Errorf("fuzz: negative gap %d", o.Gap)
	}
	return nil
}

// proc converts the op for the pipeline. It panics on invalid ops (the
// campaign driver's recover wrapper classifies that as a crash; validated
// corpus cases never reach it).
func (o Op) proc() proc.Op {
	p := proc.Op{
		Addr:   mem.Addr(o.Addr),
		Gap:    o.Gap,
		Bits32: o.Bits32,
	}
	switch o.Kind {
	case KindLoad:
		p.Kind = proc.OpLoad
	case KindStore:
		p.Kind = proc.OpStore
		p.Data = mem.Word(o.Data)
	case KindRMW:
		p.Kind = proc.OpRMW
		fn, ok := rmwTransforms[o.RMW]
		if !ok {
			panic(fmt.Sprintf("fuzz: unknown rmw transform %q", o.RMW))
		}
		p.RMW = fn
	case KindMembar:
		p.Kind = proc.OpMembar
		p.Mask = consistency.MembarMask(o.Mask)
	default:
		panic(fmt.Sprintf("fuzz: unknown op kind %q", o.Kind))
	}
	return p
}

// Program is a complete multithreaded fuzz program: one finite op list
// per thread. The zero value is an empty program.
type Program struct {
	Threads [][]Op `json:"threads"`
}

// Validate reports structural errors anywhere in the program.
func (p *Program) Validate() error {
	if len(p.Threads) == 0 {
		return fmt.Errorf("fuzz: program has no threads")
	}
	for t, ops := range p.Threads {
		for i, op := range ops {
			if err := op.Validate(); err != nil {
				return fmt.Errorf("thread %d op %d: %w", t, i, err)
			}
		}
	}
	return nil
}

// NumOps returns the total operation count across threads.
func (p *Program) NumOps() int {
	n := 0
	for _, ops := range p.Threads {
		n += len(ops)
	}
	return n
}

// NumThreads returns the thread count.
func (p *Program) NumThreads() int { return len(p.Threads) }

// Clone returns a deep copy (the minimizer mutates candidates freely).
func (p *Program) Clone() *Program {
	out := &Program{Threads: make([][]Op, len(p.Threads))}
	for i, ops := range p.Threads {
		out.Threads[i] = append([]Op(nil), ops...)
	}
	return out
}

// Spec wraps the program as a workload.Spec so it plugs into
// NewSystem/RunInjection unchanged. Threads beyond the program's count
// (if the system has more nodes) run empty programs and finish
// immediately.
func (p *Program) Spec(name string) workload.Spec {
	return workload.Custom(name, func(thread int, _ uint64) proc.Program {
		if thread < 0 || thread >= len(p.Threads) {
			return &threadProgram{}
		}
		return &threadProgram{ops: p.Threads[thread]}
	})
}

// threadProgram replays one thread's op list through the proc.Program
// contract. Its snapshotable state is just the position, which makes
// pipeline squashes and SafetyNet recoveries trivially correct.
type threadProgram struct {
	ops []Op
	pos int
}

var _ proc.Program = (*threadProgram)(nil)

// Snapshot implements proc.Program.
func (t *threadProgram) Snapshot(into any) any {
	p, ok := into.(*int)
	if !ok {
		p = new(int)
	}
	*p = t.pos
	return p
}

// Restore implements proc.Program.
func (t *threadProgram) Restore(s any) { t.pos = *s.(*int) }

// Next implements proc.Program.
func (t *threadProgram) Next(proc.Result) (proc.Op, bool) {
	if t.pos >= len(t.ops) {
		return proc.Op{}, false
	}
	op := t.ops[t.pos].proc()
	if t.pos == len(t.ops)-1 {
		op.EndTxn = true // one transaction per thread, counted at retirement
	}
	t.pos++
	return op, true
}
