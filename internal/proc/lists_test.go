package proc

import (
	"slices"
	"testing"

	"dvmc/internal/consistency"
	"dvmc/internal/core"
	"dvmc/internal/mem"
	"dvmc/internal/sim"
)

// checkLists fails unless execQ, fenceQ and replayQ are exactly their
// filters of the ROB, in ROB order, each in its own region of robBuf's
// allocation.
func checkLists(t *testing.T, c *CPU, cycle int) {
	t.Helper()
	var notIssued, fwdWaiting, fences, awaiting []*uop
	for _, u := range c.rob {
		switch {
		case u.state == uFetched:
			notIssued = append(notIssued, u)
		case u.state == uExecuting && u.forwarded:
			fwdWaiting = append(fwdWaiting, u)
		}
		if u.op.Kind == OpMembar || u.op.Kind == OpRMW {
			fences = append(fences, u)
		}
		if c.uo != nil && u.op.Kind == OpLoad && u.state == uExecuted && !u.replayStarted && !u.performed {
			awaiting = append(awaiting, u)
		}
	}
	var gotNotIssued, gotFwd []*uop
	for _, u := range c.execQ {
		if u.state == uFetched {
			gotNotIssued = append(gotNotIssued, u)
		} else {
			gotFwd = append(gotFwd, u)
		}
	}
	for _, l := range []struct {
		name      string
		got, want []*uop
	}{
		{"not issued", gotNotIssued, notIssued},
		{"forwarded waiting", gotFwd, fwdWaiting},
		{"execQ", c.execQ, append(slices.Clone(notIssued), fwdWaiting...)},
		{"fenceQ", c.fenceQ, fences},
		{"replayQ", c.replayQ, awaiting},
	} {
		if l.name == "execQ" {
			// The union is in ROB order too.
			slices.SortFunc(l.want, func(a, b *uop) int { return int(a.seq) - int(b.seq) })
		}
		if !slices.Equal(l.got, l.want) {
			t.Fatalf("cycle %d: %s list %v, ROB filter %v (%v)", cycle, l.name, seqs(l.got), seqs(l.want), c)
		}
	}
	for _, q := range [][]*uop{c.execQ, c.fenceQ, c.replayQ} {
		if cap(q) != len(c.robBuf) {
			t.Fatalf("cycle %d: a list of capacity %d beside a ROB of %d: it grew on its own", cycle, cap(q), len(c.robBuf))
		}
	}
}

func seqs(q []*uop) []uint64 {
	out := make([]uint64, len(q))
	for i, u := range q {
		out[i] = u.seq
	}
	return out
}

// TestPipelineListsMatchROB runs random programs, under every model,
// through speculation squashes (another node takes a block), verification
// squashes (memory changes under an executed load, so its replay
// mismatches) and SafetyNet-style Recovers to an earlier snapshot. After
// every cycle the lists execute and verify walk must equal the ROB's
// corresponding filters.
func TestPipelineListsMatchROB(t *testing.T) {
	for _, model := range consistency.Models {
		t.Run(model.String(), func(t *testing.T) {
			rng := sim.NewRand(uint64(model) + 101)
			var ops []Op
			for i := 0; i < 800; i++ {
				a := mem.Addr(0x1000 + 8*rng.Intn(64))
				switch r := rng.Intn(20); {
				case r < 10:
					ops = append(ops, ld(a))
				case r < 16:
					ops = append(ops, st(a, mem.Word(i)))
				case r < 18:
					ops = append(ops, Op{Kind: OpRMW, Addr: a, RMW: func(o mem.Word) mem.Word { return o + 1 }})
				default:
					ops = append(ops, mb(consistency.MembarMask(1+rng.Intn(int(consistency.FullMask)))))
				}
				ops[len(ops)-1].Gap = rng.Intn(4)
			}
			cfg := testProcCfg()
			cfg.MembarInjectionInterval = 700
			cfg.WBEntries, cfg.VCWords = 4, 8
			f := newFakeCtrl(3)
			lat := sim.NewRand(7)
			for i := 0; i < 64; i++ {
				f.perAddr[mem.Addr(0x1000+8*i)] = sim.Cycle(1 + lat.Intn(4)*lat.Intn(40))
			}
			c := NewCPU(0, cfg, model, f, NewScript(ops))
			sink := &core.CollectorSink{}
			uo := core.NewUniprocChecker(0, cfg.VCWords, model == consistency.RMO, sink)
			reorder := core.NewReorderChecker(0, sink)
			c.AttachDVMC(uo, reorder)
			k := sim.NewKernel(2)
			k.Register(f)
			k.Register(c)

			var cp ArchState
			haveCp := false
			recoveries := 0
			const budget = 400_000
			cycle := 0
			for ; cycle < budget && !c.Finished(); cycle++ {
				switch r := rng.Intn(400); {
				case r < 6:
					c.EpochEnd(mem.Addr(0x1000 + 8*rng.Intn(64)).Block())
				case r < 12:
					f.mem[mem.Addr(0x1000+8*rng.Intn(64))] += 1 << 20
				case r < 14:
					cp, haveCp = c.ArchSnapshot(), true
				case r < 15 && haveCp && recoveries < 20:
					uo.Reset()
					reorder.Reset()
					c.Recover(cp)
					haveCp = false
					recoveries++
				}
				k.Step()
				checkLists(t, c, cycle)
			}
			if !c.Finished() {
				t.Fatalf("program did not finish within %d cycles: %v", budget, c)
			}
			st := c.Stats()
			if st.SpecSquashes == 0 || st.VerifySquashes == 0 || recoveries == 0 {
				t.Fatalf("%d speculation squashes, %d verification squashes, %d recoveries: a path went untested",
					st.SpecSquashes, st.VerifySquashes, recoveries)
			}
			t.Logf("%d cycles: %d speculation squashes, %d verification squashes, %d recoveries",
				cycle, st.SpecSquashes, st.VerifySquashes, recoveries)
		})
	}
}
