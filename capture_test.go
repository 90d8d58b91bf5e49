package dvmc

import (
	"reflect"
	"slices"
	"testing"

	"dvmc/internal/coherence"
	"dvmc/internal/mem"
	"dvmc/internal/sim"
)

// dirtyScan is what a checkpoint must hold, found the slow way: every
// controller's whole L2 array walked in order for the dirty lines (valid,
// data arrived, M or O), then its dirty writeback entries by block. The
// arrays are unexported, so the walk reads them by reflection: it shares
// no code with the incremental capture it checks. wbs counts the
// writeback entries, and kept the lines in sets not touched since the
// last capture, which the next one copies from the last.
type dirtyScan struct {
	lines     []dirtyLine
	wbs, kept int
}

func fullDirtyScan(s *System) dirtyScan {
	var d dirtyScan
	for _, c := range s.ctrls {
		core := reflect.ValueOf(c).Elem().FieldByName("ctrlCore")
		l2 := core.FieldByName("l2").Elem()
		ways := int(l2.FieldByName("ways").Int())
		chunks := l2.FieldByName("chunks")
		for k := 0; k < chunks.Len(); k++ {
			touched := chunks.Index(k).FieldByName("touched").Uint()
			entries := chunks.Index(k).FieldByName("entries")
			for i := 0; i < entries.Len(); i++ {
				l := entries.Index(i)
				st := coherence.State(l.FieldByName("state").Uint())
				if l.FieldByName("valid").Bool() && l.FieldByName("dataValid").Bool() &&
					(st == coherence.Modified || st == coherence.Owned) {
					d.lines = append(d.lines, dirtyLine{mem.BlockAddr(l.FieldByName("block").Uint()), blockOf(l.FieldByName("data"))})
					if touched&(1<<(i/ways)) == 0 {
						d.kept++
					}
				}
			}
		}
		wb := core.FieldByName("wb")
		keys := wb.MapKeys()
		slices.SortFunc(keys, func(a, b reflect.Value) int { return int(a.Uint()) - int(b.Uint()) })
		for _, k := range keys {
			if e := wb.MapIndex(k); e.FieldByName("dirty").Bool() {
				d.lines = append(d.lines, dirtyLine{mem.BlockAddr(k.Uint()), blockOf(e.FieldByName("data"))})
				d.wbs++
			}
		}
	}
	return d
}

func blockOf(v reflect.Value) mem.Block {
	var b mem.Block
	for i := range b {
		b[i] = mem.Word(v.Index(i).Uint())
	}
	return b
}

// captureSystems are the two evaluated systems with a 32 KB two-way L2,
// which OLTP overflows, and a checkpoint every 2,000 cycles: writebacks
// are outstanding at checkpoints, and most sets, dirty lines and all, are
// untouched between two of them.
func captureSystems() []Config {
	var out []Config
	for _, sys := range []struct {
		p Protocol
		m Model
	}{{Directory, TSO}, {Snooping, RMO}} {
		cfg := ScaledConfig().WithProtocol(sys.p).WithModel(sys.m)
		cfg.Memory.L1Sets, cfg.Memory.L1Ways = 16, 2
		cfg.Memory.L2Sets, cfg.Memory.L2Ways = 256, 2
		cfg.SNConfig.Interval = 2_000
		out = append(out, cfg)
	}
	return out
}

// TestCaptureEqualsFullScan: a checkpoint's dirty list, merged from the
// previous checkpoint's and the sets touched since, is element for
// element the list a full walk of every L2 and writeback buffer finds at
// that moment. Each run places one fault that changes lines behind the
// protocol's back the cycle before a checkpoint, or rolls back twice
// (nested-recovery); then recovers to the newest checkpoint, and to one
// before the fault. Every checkpoint is compared, those after each
// recovery included.
func TestCaptureEqualsFullScan(t *testing.T) {
	const faultAt = Cycle(29_999)
	for _, cfg := range captureSystems() {
		for _, kind := range []FaultKind{FaultCacheDataFlip, FaultCtrlStateCorrupt, FaultSilentWrite,
			FaultWBCorrupt, FaultNestedRecovery} {
			t.Run(cfg.Protocol.String()+"/"+kind.String(), func(t *testing.T) {
				s, err := NewSystem(cfg, OLTP())
				if err != nil {
					t.Fatal(err)
				}
				s.SetStrict(false)
				interval := cfg.SNConfig.Interval
				var checked, recoveries, kept, wbs int
				// runTo runs to cycle end. At each checkpoint cycle it
				// scans before the cycle runs (the manager ticks first, so
				// that is the state the capture sees) and compares after.
				// The second rollback of a nested recovery comes when due.
				runTo := func(end Cycle) {
					t.Helper()
					for s.Now() < end {
						if s.recoverAgainAt > 0 && s.Now() >= s.recoverAgainAt {
							s.recoverAgainAt = 0
							s.Recover(s.Now())
							recoveries++
						}
						next := min(end, (s.Now()/interval+1)*interval)
						if s.recoverAgainAt > s.Now() {
							next = min(next, s.recoverAgainAt)
						}
						s.RunCycles(uint64(next - s.Now()))
						if s.Now()%interval != 0 || s.Now() >= end {
							continue
						}
						want := fullDirtyScan(s)
						s.RunCycles(1)
						st := s.lastCp
						if st == nil || st.cycle != s.Now()-1 {
							t.Fatalf("no checkpoint was taken at cycle %d", s.Now()-1)
						}
						if len(st.dirty) != len(want.lines) || (len(st.dirty) > 0 && !reflect.DeepEqual(st.dirty, want.lines)) {
							t.Fatalf("checkpoint at cycle %d (%d recoveries before it): %d dirty entries, a full scan finds %d, or they differ",
								st.cycle, recoveries, len(st.dirty), len(want.lines))
						}
						checked++
						kept += want.kept
						wbs += want.wbs
					}
				}
				row := &faultKinds[kind]
				inj := Injection{Kind: kind, Node: 2, Cycle: faultAt,
					Window: sim.Cycle(row.window.def), Magnitude: row.magnitude.def}
				if kind == FaultNestedRecovery {
					// Both rollbacks between two checkpoints.
					inj.Cycle, inj.Window = faultAt-1_500, 1_000
				}
				runTo(inj.Cycle)
				if !row.arm(s, inj.Node, inj, sim.NewRand(uint64(kind))) {
					t.Logf("%v found no target", kind)
				} else if kind == FaultNestedRecovery {
					recoveries++
				}
				runTo(faultAt + 5_000)
				if s.Recover(s.Now()) {
					recoveries++
				}
				runTo(faultAt + 5_800) // before the checkpoint older than the fault expires
				if s.Recover(faultAt) {
					recoveries++
				}
				runTo(faultAt + 30_000)
				t.Logf("%d checkpoints compared, %d lines kept from the one before, %d writeback entries; %d recoveries",
					checked, kept, wbs, recoveries)
				if checked < 25 || kept == 0 || wbs == 0 {
					t.Fatal("too little compared to check the merge")
				}
				if recoveries < 2 || kind == FaultNestedRecovery && s.snMgr.Stats().NestedRecoveries == 0 {
					t.Fatalf("%d recoveries, %d nested", recoveries, s.snMgr.Stats().NestedRecoveries)
				}
			})
		}
	}
}

// TestCaptureSteadyStateAllocFree: once warm, the cache half of a
// checkpoint allocates nothing, on both protocols, with writebacks
// outstanding: the merge into a recycled record, the touched sets it
// re-reads and the writeback entries it sorts. (The cores' half hands
// each checkpoint a program snapshot and a pending-store list of its
// own.) Each round touches sets first, by flipping a bit of resident
// lines and back, which leaves their data as it was.
func TestCaptureSteadyStateAllocFree(t *testing.T) {
	for _, cfg := range captureSystems() {
		t.Run(cfg.Protocol.String(), func(t *testing.T) {
			s, err := NewSystem(cfg, OLTP())
			if err != nil {
				t.Fatal(err)
			}
			s.RunCycles(200_000)
			for fullDirtyScan(s).wbs == 0 {
				s.RunCycles(1)
			}
			var blocks [][]mem.BlockAddr
			for _, c := range s.ctrls {
				blocks = append(blocks, c.ResidentBlocks(8))
			}
			// The records captured here are the test's own: the manager's
			// live checkpoints are never recycled.
			var mine *checkpointState
			round := func() {
				for i, c := range s.ctrls {
					for _, b := range blocks[i] {
						c.CorruptCacheBit(b, 7)
						c.CorruptCacheBit(b, 7)
					}
				}
				st := s.cpStates.Get()
				s.captureLines(st)
				if mine != nil {
					s.recycle(mine)
				}
				mine = st
			}
			round()
			round()
			if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
				t.Errorf("%v allocs per checkpoint capture, want 0", allocs)
			}
			want := fullDirtyScan(s)
			if want.wbs == 0 || !reflect.DeepEqual(mine.dirty, want.lines) {
				t.Fatalf("the last capture holds %d entries, a full scan %d with %d writeback entries",
					len(mine.dirty), len(want.lines), want.wbs)
			}
		})
	}
}
