package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"time"

	"dvmc"
	"dvmc/internal/coherence"
	"dvmc/internal/consistency"
	"dvmc/internal/core"
	"dvmc/internal/fabric"
	"dvmc/internal/fuzz"
	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/proc"
	"dvmc/internal/sim"
	"dvmc/internal/span"
	"dvmc/internal/telemetry"
	"dvmc/internal/trace"
)

// Method 3: layer drivers. Each drives one layer's public API with a
// synthetic stream of the benchmark's own and reports ns (and, where it
// matters, heap objects) per operation by the timing rule. They say
// what a layer costs in isolation; the ablation deltas say what it
// costs inside a running System.

// driverBudget is how long one driver measures at scale 1.
const driverBudget = 80 * time.Millisecond

func (e *env) driverBudget() time.Duration {
	return time.Duration(float64(driverBudget) * e.scale)
}

func nullSink() core.Sink { return core.SinkFunc(func(core.Violation) {}) }

// simLayerDrivers runs the drivers of the layers a sim workload's timed
// path goes through; the coherence and broadcast drivers follow the
// workload's protocol.
func simLayerDrivers(e *env, res *WorkloadResult, name string) {
	b := e.driverBudget()
	res.setLayer("sim.eventq_ns_per_event", driveEventQueue(b).NsPerOp)
	res.setLayer("sim.kernel_ns_per_component_tick", driveKernel(b).NsPerOp)
	res.setLayer("network.torus_ns_per_msg", driveTorus(b).NsPerOp)
	if name == wlSimSnp {
		res.setLayer("network.bcast_ns_per_msg", driveBroadcast(b).NsPerOp)
		r := driveCoherence(b, true)
		res.setLayer("coherence.snoop_ns_per_access", r.NsPerOp)
		res.setLayer("coherence.snoop_allocs_per_access", r.AllocsPerOp)
	} else {
		r := driveCoherence(b, false)
		res.setLayer("coherence.dir_ns_per_access", r.NsPerOp)
		res.setLayer("coherence.dir_allocs_per_access", r.AllocsPerOp)
	}
	res.setLayer("proc.ns_per_retired_op", driveProc(b, e.seed))
	res.setLayer("core.vc_replay_ns_per_op", driveVCReplay(b).NsPerOp)
	res.setLayer("core.cet_epoch_ns_per_op", driveCETEpoch(b).NsPerOp)
	res.setLayer("core.met_inform_ns_per_op", driveMETInform(b).NsPerOp)
	res.setLayer("core.reorder_ns_per_op", driveReorder(b).NsPerOp)
	res.setLayer("span.txn_ns_per_span", driveSpanTxn(b).NsPerOp)
	res.setLayer("span.encode_ns_per_span", driveSpanEncode(b))
	res.setLayer("hash.crc16_ns_per_block", driveCRC(b).NsPerOp)
	res.setLayer("workload.next_ns_per_op", driveWorkloadNext(b, e.seed).NsPerOp)
}

func driveEventQueue(budget time.Duration) driveResult {
	var q sim.EventQueue
	fn := func() {}
	for i := 0; i < 256; i++ {
		q.At(sim.Cycle(i+4), fn)
	}
	return drive(256, 1024, budget, func(i int) {
		now := sim.Cycle(i)
		q.At(now+260, fn)
		q.Tick(now)
	})
}

type nopComponent struct{ ticks uint64 }

func (c *nopComponent) Tick(sim.Cycle) { c.ticks++ }

func driveKernel(budget time.Duration) driveResult {
	// An 8-node directory system registers about 50 components.
	const comps = 50
	var k sim.Kernel
	for i := 0; i < comps; i++ {
		k.Register(&nopComponent{})
	}
	r := drive(64, 256, budget, func(int) { k.Step() })
	r.NsPerOp /= comps
	return r
}

func driveTorus(budget time.Duration) driveResult {
	const nodes = 8
	tor := network.NewTorus(nodes, 1.25, 15, sim.NewRand(1))
	delivered := 0
	for n := 0; n < nodes; n++ {
		tor.SetHandler(network.NodeID(n), func(*network.Message) { delivered++ })
	}
	var msgs [nodes]network.Message
	now := sim.Cycle(0)
	return drive(64, 64, budget, func(i int) {
		m := &msgs[i%nodes]
		*m = network.Message{Src: network.NodeID(i % nodes), Dst: network.NodeID((i + 3) % nodes), Size: 72, Class: network.ClassCoherence}
		want := delivered + 1
		tor.Send(m)
		for delivered < want {
			now++
			tor.Tick(now)
		}
	})
}

func driveBroadcast(budget time.Duration) driveResult {
	const nodes = 8
	bt := network.NewBroadcastTree(nodes, 1.25, 6, sim.NewRand(1))
	delivered := 0
	for n := 0; n < nodes; n++ {
		bt.SetHandler(network.NodeID(n), func(*network.Message) { delivered++ })
	}
	var msgs [nodes]network.Message
	now := sim.Cycle(0)
	return drive(64, 64, budget, func(i int) {
		m := &msgs[i%nodes]
		*m = network.Message{Src: network.NodeID(i % nodes), Size: 8, Class: network.ClassCoherence}
		want := delivered + nodes
		bt.Send(m)
		for delivered < want {
			now++
			bt.Tick(now)
		}
	})
}

// driveCoherence builds kernel + network + caches + homes only (no
// cores, no checkers) and runs a 4-node sharing pattern: every access
// goes to one of a few blocks the other nodes also touch, stores and
// loads alternating, so ownership migrates and sharers are invalidated.
func driveCoherence(budget time.Duration, snooping bool) driveResult {
	const nodes = 4
	cfg := dvmc.ScaledConfig().Memory
	cfg.Nodes = nodes
	var k sim.Kernel
	tor := network.NewTorus(nodes, 1.25, 15, sim.NewRand(7))
	k.Register(tor)
	var bt *network.BroadcastTree
	if snooping {
		bt = network.NewBroadcastTree(nodes, 1.25, 6, sim.NewRand(9))
		k.Register(bt)
	}
	ctrls := make([]coherence.Controller, nodes)
	for n := 0; n < nodes; n++ {
		nid := network.NodeID(n)
		if snooping {
			c := coherence.NewSnoopCache(nid, cfg, bt, tor)
			h := coherence.NewSnoopHome(nid, cfg, tor, mem.NewMemory(false))
			bt.SetHandler(nid, coherence.SnoopingAddressHandler(c, h))
			tor.SetHandler(nid, coherence.SnoopingDataHandler(c, h, nil))
			k.Register(h)
			k.Register(c)
			ctrls[n] = c
		} else {
			clock := coherence.NewSkewedClock(k.Now, uint64(n), 8)
			c := coherence.NewDirCache(nid, cfg, tor, clock)
			h := coherence.NewDirHome(nid, cfg, tor, mem.NewMemory(false))
			tor.SetHandler(nid, coherence.DirectoryHandler(c, h, nil))
			k.Register(h)
			k.Register(c)
			ctrls[n] = c
		}
	}
	const blocks = 16
	done := false
	loadDone := func(mem.Word, bool) { done = true }
	storeDone := func() { done = true }
	return drive(256, 32, budget, func(i int) {
		n := i % nodes
		addr := mem.Addr(mem.BlockBytes * ((i / nodes * 7) % blocks))
		done = false
		if (i/nodes)%2 == 0 {
			ctrls[n].Store(addr, mem.Word(i), storeDone)
		} else {
			ctrls[n].Load(addr, network.ClassCoherence, loadDone)
		}
		if !k.RunUntil(func() bool { return done }, 1_000_000) {
			panic("benchmark: coherence driver access did not complete")
		}
	})
}

// driveProc runs a 1-node, checker-less system: with one node every
// access is local, so what remains is the core pipeline and the
// workload generator. Returns ns per retired op.
func driveProc(budget time.Duration, seed uint64) float64 {
	cfg := dvmc.ScaledConfig().WithNodes(1).WithSeed(seed)
	cfg.DVMC = dvmc.Off()
	cfg.SafetyNet = false
	sys, err := dvmc.NewSystem(cfg, dvmc.OLTP())
	if err != nil {
		panic(err)
	}
	sys.RunCycles(5000)
	before := sys.ResultsSoFar().OpsRetired
	const chunk = 2000
	var samples []float64
	start := time.Now()
	for len(samples) < minSamplesForDecile || time.Since(start) < budget {
		t := time.Now()
		sys.RunCycles(chunk)
		samples = append(samples, time.Since(t).Seconds())
	}
	ops := float64(sys.ResultsSoFar().OpsRetired-before) / float64(len(samples))
	return summarize(samples).RuleTime() / ops * 1e9
}

func driveVCReplay(budget time.Duration) driveResult {
	u := core.NewUniprocChecker(0, 64, true, nullSink())
	return drive(512, 1024, budget, func(i int) {
		addr := mem.Addr(8 * (i & 15))
		v := mem.Word(i)
		u.StoreCommitted(addr, v)
		u.StorePerformed(addr, v, sim.Cycle(i))
		u.ReplayLoad(addr, v, sim.Cycle(i))
	})
}

// bumpClock is a manually advanced logical clock.
type bumpClock struct{ t uint64 }

func (c *bumpClock) LogicalNow() uint64 { return c.t }

// releaseNet consumes informs the way a System does: hand the message
// to the MET and return it to the pool.
type releaseNet struct {
	pool *core.InformPool
	met  *core.MemChecker
}

func (n *releaseNet) Send(m *network.Message) {
	n.met.Handle(m)
	n.pool.Release(m)
}
func (n *releaseNet) SetHandler(network.NodeID, network.Handler) {}
func (n *releaseNet) Nodes() int                                 { return 8 }
func (n *releaseNet) LinkStats() []network.LinkStat              { return nil }
func (n *releaseNet) SetFaultHook(network.FaultHook)             {}
func (n *releaseNet) Tick(sim.Cycle)                             {}

func driveCETEpoch(budget time.Duration) driveResult {
	mcfg := dvmc.ScaledConfig().Memory
	pool := &core.InformPool{}
	clock := &bumpClock{t: 100}
	var cyc sim.Cycle
	now := func() sim.Cycle { return cyc }
	met := core.NewMemChecker(0, mcfg, clock, now, nullSink())
	cet := core.NewCacheChecker(1, mcfg, &releaseNet{pool: pool, met: met}, clock, now, nullSink())
	cet.SetInformPool(pool)
	var data mem.Block
	return drive(1024, 512, budget, func(i int) {
		blk := mem.BlockAddr(8 * (i & 15)) // all homed at node 0
		clock.t += 4
		cet.EpochBegin(blk, coherence.ReadWrite, clock.t, true, data)
		cet.Access(blk, true)
		cet.EpochEnd(blk, coherence.ReadWrite, clock.t+1, data)
		cyc++
		met.Tick(cyc)
	})
}

func driveMETInform(budget time.Duration) driveResult {
	clock := &bumpClock{t: 100}
	var cyc sim.Cycle
	met := core.NewMemChecker(0, dvmc.ScaledConfig().Memory, clock, func() sim.Cycle { return cyc }, nullSink())
	inform := core.InformEpoch{Block: 0x80, Kind: coherence.ReadWrite, From: 1}
	msg := &network.Message{Payload: &inform}
	return drive(256, 512, budget, func(int) {
		clock.t += 4
		inform.Begin = core.Wrap(clock.t)
		inform.End = core.Wrap(clock.t + 1)
		met.Handle(msg)
		cyc++
		met.Tick(cyc)
	})
}

func driveReorder(budget time.Duration) driveResult {
	r := core.NewReorderChecker(0, nullSink())
	return drive(256, 1024, budget, func(i int) {
		class := consistency.Load
		if i&1 == 1 {
			class = consistency.Store
		}
		r.OpCommitted(class, false)
		r.OpPerformed(core.PerformedOp{Seq: uint64(i + 1), Class: class, Model: consistency.TSO}, sim.Cycle(i))
	})
}

func driveTraceWrite(budget time.Duration) driveResult {
	w, err := trace.NewWriter(io.Discard, trace.Meta{Version: trace.Version, Nodes: 4, Model: consistency.TSO})
	if err != nil {
		panic(err)
	}
	return drive(256, 1024, budget, func(i int) {
		ev := trace.Event{Kind: trace.EvCommit, Node: uint8(i & 3), Class: consistency.Store,
			Model: consistency.TSO, Seq: uint64(i), Addr: mem.Addr(0x100 + 8*(i&63)), Val: mem.Word(i), Time: sim.Cycle(i)}
		if err := w.Write(ev); err != nil {
			panic(err)
		}
	})
}

func driveSpanTxn(budget time.Duration) driveResult {
	rec := span.NewRecorder(span.On())
	return drive(8192, 1024, budget, func(i int) {
		node, addr, now := int32(i&7), uint64(0x40*(i&255)), sim.Cycle(i*3)
		rec.TxnBegin(node, addr, span.TxnWrite, now)
		rec.TxnEvent(node, addr, span.LabelWork, now+1, 1, 2)
		rec.TxnEnd(node, addr, span.OutcomeDone, now+2)
	})
}

// driveSpanEncode reports ns per span of span.Encode over a full
// recorder's dump.
func driveSpanEncode(budget time.Duration) float64 {
	rec := span.NewRecorder(span.On())
	for i := 0; i < 2*span.DefaultCap; i++ {
		node, addr, now := int32(i&7), uint64(0x40*(i&255)), sim.Cycle(i*3)
		rec.TxnBegin(node, addr, span.TxnRead, now)
		rec.TxnEvent(node, addr, span.LabelWork, now+1, 1, 2)
		rec.TxnEnd(node, addr, span.OutcomeDone, now+2)
	}
	spans := rec.Drain(sim.Cycle(6 * span.DefaultCap))
	meta := span.Meta{Nodes: 8}
	r := drive(1, 1, budget, func(int) {
		if _, err := span.Encode(meta, spans); err != nil {
			panic(err)
		}
	})
	return r.NsPerOp / float64(len(spans))
}

// sinkU64 keeps a driver's result live so the compiler cannot drop the call.
var sinkU64 uint64

func driveCRC(budget time.Duration) driveResult {
	var blk mem.Block
	var sum uint64
	r := drive(64, 1024, budget, func(i int) {
		blk[i&7] = mem.Word(i) * 0x9e3779b97f4a7c15
		sum += uint64(core.BlockHash(blk))
	})
	sinkU64 = sum
	return r
}

func driveWorkloadNext(budget time.Duration, seed uint64) driveResult {
	prog := dvmc.OLTP().WithThreads(8).WithModel(dvmc.TSO).NewProgram(0, seed)
	return drive(1024, 1024, budget, func(int) {
		if _, ok := prog.Next(proc.Result{Valid: true}); !ok {
			panic("benchmark: statistical workload ended")
		}
	})
}

// farmLayerDrivers runs the drivers of the layers only the campaign
// path goes through.
func farmLayerDrivers(e *env, res *WorkloadResult, sample fabric.ShardResult, snaps []*telemetry.Snapshot) error {
	b := e.driverBudget()
	res.setLayer("trace.write_ns_per_event", driveTraceWrite(b).NsPerOp)
	res.setLayer("fuzz.generate_us_per_program", drive(8, 8, b, func(i int) {
		if _, err := fuzz.DefaultGenParams(e.seed + uint64(i)).Generate(); err != nil {
			panic(err)
		}
	}).NsPerOp/1e3)
	res.setLayer("fabric.lease_table_ns_per_acquire", driveLeaseTable(b).NsPerOp)
	appendUs, readMBs, err := driveCheckpoint(e, b, sample)
	if err != nil {
		return err
	}
	res.setLayer("fabric.checkpoint_append_us", appendUs)
	res.setLayer("fabric.checkpoint_read_mb_per_s", readMBs)
	res.setLayer("telemetry.merge_us_per_snapshot", drive(2, 2, b, func(int) {
		if _, err := telemetry.MergeSnapshots(snaps...); err != nil {
			panic(err)
		}
	}).NsPerOp/1e3/float64(len(snaps)))
	return nil
}

// driveLeaseTable acquires and releases against a half-finished table,
// so every acquire scans past the completed shards as it does mid-job.
func driveLeaseTable(budget time.Duration) driveResult {
	const n = 128
	shards := make([]fabric.Shard, n)
	for i := range shards {
		shards[i] = fabric.Shard{ID: i, From: 8 * i, To: 8*i + 8}
	}
	t := fabric.NewLeaseTable(shards, 60)
	for i := 0; i < n/2; i++ {
		t.Complete(i)
	}
	return drive(64, 1024, budget, func(i int) {
		s, ok := t.Acquire("w", uint64(i))
		if !ok {
			panic("benchmark: lease table ran dry")
		}
		t.Release(s.ID)
	})
}

// checkpointReadEntries is how many journal records the read-back covers.
const checkpointReadEntries = 16

// driveCheckpoint appends one shard result per call to a real file and
// syncs it, as the coordinator's journal does, then reads the file back.
func driveCheckpoint(e *env, budget time.Duration, sample fabric.ShardResult) (appendUs, readMBs float64, err error) {
	path := filepath.Join(e.tmp, "driver.ckpt")
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	defer os.Remove(path)
	defer f.Close()
	entry := fabric.CheckpointEntry{Result: &sample}
	var ioErr error
	ap := drive(1, 1, budget, func(int) {
		if err := fabric.AppendEntry(f, entry); err != nil {
			ioErr = err
		}
		if err := f.Sync(); err != nil {
			ioErr = err
		}
	})
	if ioErr != nil {
		return 0, 0, ioErr
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	// Read back a fixed number of records, however many the budget wrote.
	lines := bytes.SplitAfter(data, []byte("\n"))
	data = bytes.Join(lines[:min(len(lines), checkpointReadEntries)], nil)
	perByte := fastestPerOp(5, len(data), func() {
		if _, _, err := fabric.ReadCheckpoint(data); err != nil {
			ioErr = err
		}
	})
	if ioErr != nil {
		return 0, 0, ioErr
	}
	return ap.NsPerOp / 1e3, 1 / perByte / 1e6, nil
}
