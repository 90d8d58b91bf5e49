package proc

import (
	"testing"
	"unsafe"

	"dvmc/internal/consistency"
	"dvmc/internal/mem"
	"dvmc/internal/network"
)

// pinned is added to a twin uop's inflight count so that it is never
// recycled: reclaim waits for outstanding completions, and these never
// come. cpuView takes it out again.
const pinned = 1 << 20

// trackLives makes cores[1] the always-fresh twin — every uop it holds is
// pinned before it can be dropped (fetch is the last stage of a tick, so a
// uop is always seen here first) — and counts the uops cores[0] reuses.
func (tw *twins) trackLives() {
	held := func(c *CPU) []*uop {
		if c.pendingOp != nil {
			return append(c.rob[:len(c.rob):len(c.rob)], c.pendingOp)
		}
		return c.rob
	}
	for _, u := range held(tw.cores[1]) {
		if u.inflight < pinned {
			u.inflight += pinned
		}
	}
	if tw.lives == nil {
		tw.lives = map[*uop]uint64{}
	}
	for _, u := range held(tw.cores[0]) {
		if seq, seen := tw.lives[u]; seen && seq != u.seq {
			tw.reused++
		}
		tw.lives[u] = u.seq
	}
}

// inROB reports whether u is one of c's reorder-buffer entries.
func inROB(c *CPU, u *uop) bool {
	for _, r := range c.rob {
		if r == u {
			return true
		}
	}
	return false
}

// TestSquashedLoadIsNotReusedBeforeItsCompletion: a load is squashed
// while the cache still owes it a completion — its demand access, or the
// replay access of the verification stage. The core refetches, reusing
// the uops the squash freed, and only then does the cache deliver: the
// late completion must find the squashed load, never the op that a
// recycled uop has become. The twin allocates every uop fresh.
func TestSquashedLoadIsNotReusedBeforeItsCompletion(t *testing.T) {
	for _, class := range []network.Class{network.ClassCoherence, network.ClassReplay} {
		t.Run(class.String(), func(t *testing.T) {
			// The head load is held, so everything younger stays
			// speculative; the load of 0x3000 is the victim.
			hold := func(a mem.Addr, c network.Class, store bool) bool {
				return !store && (a == 0x1000 && c == network.ClassCoherence || a == 0x3000 && c == class)
			}
			tw := newTwins(t, twinOpts{model: consistency.TSO, cfg: testProcCfg(), dvmc: true, hold: hold,
				prog: script(ld(0x1000), ld(0x2000), ld(0x3000), ld(0x4000), st(0x5000, 5), ld(0x5000), ld(0x6000))})
			tw.fresh = true
			tw.both(func(_ *CPU, h *holdCtrl) {
				h.mem[0x2000], h.mem[0x3000], h.mem[0x4000] = 0x22, 0x33, 0x44
			})
			tw.run(60)
			c := tw.cores[0]
			var victim *uop
			for _, u := range c.rob {
				if u.op.Addr == 0x3000 {
					victim = u
				}
			}
			if victim == nil || victim.inflight != 1 {
				t.Fatalf("no load of 0x3000 with one completion outstanding in the ROB: %+v", victim)
			}
			// Another processor takes 0x2000's block: its speculative load
			// and everything younger are squashed.
			tw.both(func(c *CPU, _ *holdCtrl) { c.EpochEnd(mem.Addr(0x2000).Block()) })
			if inROB(c, victim) {
				t.Fatal("the squash did not take the load of 0x3000")
			}
			if !victim.squashed {
				t.Fatal("the squashed load was recycled with its completion outstanding")
			}
			tw.run(40) // refetch past the squash penalty
			if tw.reused == 0 {
				t.Fatal("the refetch reused none of the squashed uops")
			}
			if inROB(c, victim) || !victim.squashed {
				t.Fatal("a uop with a completion outstanding was recycled")
			}
			// What the late completion carries is no longer what memory
			// holds for any op in flight.
			tw.both(func(_ *CPU, h *holdCtrl) {
				h.mem[0x3000] = 0x99
				h.hold = nil
				h.release()
				h.mem[0x3000] = 0x33
			})
			tw.run(3)
			reusedBefore := tw.reused
			tw.finishRecycled(600)
			if tw.reused == reusedBefore {
				t.Error("the victim's uop was never reused after its completion arrived")
			}
		})
	}
}

// finishRecycled runs both cores to the end of the program.
func (tw *twins) finishRecycled(budget int) {
	tw.t.Helper()
	for i := 0; i < budget && !(tw.cores[0].Finished() && tw.cores[1].Finished()); i++ {
		tw.step()
	}
	if !tw.cores[0].Finished() {
		tw.t.Fatalf("program did not finish within %d cycles: %v", budget, tw.cores[0])
	}
}

// TestCheckpointOutlivesTheUopItsSnapshotCameFrom: a checkpoint takes its
// program position from the oldest op in flight. That op then retires and
// its uop carries other ops, each taking a program snapshot of its own;
// restoring the checkpoint must still rewind to the position it captured.
func TestCheckpointOutlivesTheUopItsSnapshotCameFrom(t *testing.T) {
	// Two held loads, far apart: each fills the ROB behind it, so every
	// uop the core owns is in use twice, the checkpoint's source included.
	ops := []Op{ld(0x9000)}
	for i := 1; i < 80; i++ {
		a := mem.Addr(0x1000 + 0x40*(i%6))
		switch {
		case i == 40:
			ops = append(ops, ld(0x9040))
		case i%4 == 1:
			ops = append(ops, st(a, mem.Word(i)))
		default:
			ops = append(ops, ld(a))
		}
	}
	cfg := testProcCfg()
	cfg.ROBInstrs = 16
	tw := newTwins(t, twinOpts{model: consistency.TSO, cfg: cfg, dvmc: true,
		hold: func(a mem.Addr, c network.Class, store bool) bool {
			return !store && c == network.ClassCoherence && (a == 0x9000 || a == 0x9040)
		},
		prog: func() Program { return NewScript(ops) }})
	tw.fresh = true
	tw.run(30)
	c := tw.cores[0]
	if len(c.rob) != cfg.ROBInstrs || !c.rob[0].snapped {
		t.Fatalf("%d ops in flight, want a full ROB to take the checkpoint's position from", len(c.rob))
	}
	source, seqThen := c.rob[0], c.rob[0].seq
	var cp [2]ArchState
	for i, c := range tw.cores {
		cp[i] = c.ArchSnapshot()
	}
	tw.both(func(_ *CPU, h *holdCtrl) { h.release() })
	tw.run(150) // up to the second held load, the ROB full behind it
	if tw.lives[source] == seqThen {
		t.Fatal("the uop the checkpoint's snapshot came from was never reused")
	}
	i := 0
	tw.both(func(c *CPU, h *holdCtrl) {
		h.hold, h.parked = nil, nil
		c.uo.Reset()
		c.reorder.Reset()
		c.Recover(cp[i])
		i++
	})
	retiredThen := c.Stats().OpsRetired
	tw.finishRecycled(3000)
	// Nothing had retired when the checkpoint was taken: the whole
	// program runs again.
	if got := c.Stats().OpsRetired - retiredThen; got != uint64(len(ops)) {
		t.Errorf("%d ops retired after recovery, want all %d: the run did not resume where the checkpoint was taken", got, len(ops))
	}
}

// TestUopSize pins the micro-op at 160 B, a size class: a fuzz case draws
// about a hundred of them, and a field added among the words instead of
// among the one-byte flags at the end moves it to the next class.
func TestUopSize(t *testing.T) {
	if got := unsafe.Sizeof(uop{}); got != 160 {
		t.Errorf("uop is %d B, want 160", got)
	}
}
