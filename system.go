package dvmc

import (
	"fmt"
	"sync"

	"dvmc/internal/coherence"
	"dvmc/internal/core"
	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/proc"
	"dvmc/internal/safetynet"
	"dvmc/internal/sim"
	"dvmc/internal/span"
	"dvmc/internal/telemetry"
	"dvmc/internal/trace"
	"dvmc/internal/workload"
)

// Workload re-exports the workload specification type.
type Workload = workload.Spec

// The five paper workloads (Table 8), the synthetic stress generator,
// and the programmatic-construction hook (explicit per-thread programs;
// dvmc-fuzz builds its randomized litmus specs this way).
var (
	Apache         = workload.Apache
	OLTP           = workload.OLTP
	JBB            = workload.JBB
	Slashcode      = workload.Slashcode
	Barnes         = workload.Barnes
	Uniform        = workload.Uniform
	CustomWorkload = workload.Custom
	Workloads      = workload.All
)

// WorkloadByName resolves a workload by its Table 8 name
// (case-insensitive); the error lists the known names.
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// Violation re-exports the checker violation record.
type Violation = core.Violation

// System is one assembled multiprocessor with optional DVMC and
// SafetyNet. Build with NewSystem; drive with Run, RunCycles or
// RunToCompletion.
type System struct {
	cfg Config

	kernel *sim.Kernel
	torus  *network.Torus
	bcast  *network.BroadcastTree // snooping only

	ctrls []coherence.Controller
	homes []coherence.Home

	// clocks retains the directory system's per-node skewed clocks so
	// fault injection can skew them; nil entries under snooping (whose
	// logical time is the broadcast sequence, not a physical clock).
	clocks []*coherence.SkewedClock

	cpus  []*proc.CPU
	progs []proc.Program

	uo      []*core.UniprocChecker
	reorder []*core.ReorderChecker
	cet     []*core.CacheChecker
	met     []*core.MemChecker

	// sp is the storage the system was built on, its own until Retire
	// gives it back; nil once retired. Its lists recycle the checkpoint
	// records the manager releases and the CET→MET inform messages, each
	// released right after its MET handler returns (Handle copies what it
	// keeps).
	sp *spare

	snMgr     *safetynet.Manager
	snLoggers []*safetynet.Logger
	// lastCp is the newest checkpoint: the next capture keeps its dirty
	// lines wherever the caches have not changed since. nil after a
	// restore, whose caches start empty.
	lastCp *checkpointState
	merge  dirtyMerge

	// rec captures the execution trace when Config.Trace is enabled. One
	// shared recorder preserves the global chronological order of events
	// across processors, which the offline oracle's value checks rely on.
	// tracer is the sink the processors actually emit into: the recorder,
	// the stream oracle of a judged run (RunJudged), or a tee of both.
	// rec is nil unless Config.Trace.Enabled.
	rec    *trace.Recorder
	tracer trace.Sink

	// sampler records the tracked telemetry series; nil unless
	// Config.Telemetry is enabled (see telemetry.go).
	sampler *telemetry.Sampler

	// spanRec is the causal span recorder; nil unless Config.Spans is
	// enabled (see spans.go).
	spanRec *span.Recorder

	violations core.CollectorSink
	// reported is the whole-run Results the last Run* call ended with;
	// the next call's interval is counted from it.
	reported Results

	// msgFaultActivated records when an armed message fault fired.
	msgFaultActivated sim.Cycle
	// recoverAgainAt, set by the nested-recovery fault, is when its
	// injection run issues the second rollback.
	recoverAgainAt sim.Cycle

	// injected is what System.inject concluded (zero for a run without
	// one); TelemetrySnapshot reads its detection latency from here.
	injected InjectionResult
}

// snoopClock adapts the broadcast sequence number as the snooping
// logical time base. It advances only when the tree delivers, and wakes
// the checkers that subscribe to it then.
type snoopClock struct{ bt *network.BroadcastTree }

func (c snoopClock) LogicalNow() uint64 { return c.bt.Sequence() }

func (c snoopClock) WakeOnAdvance(s sim.Slot) { c.bt.WakeOnAdvance(s) }

// fanEpoch fans epoch events out to the CET checker (if any) and the
// CPU's mis-speculation squash hook.
type fanEpoch struct {
	cet *core.CacheChecker
	cpu *proc.CPU
}

func (f fanEpoch) EpochBegin(b mem.BlockAddr, k coherence.EpochKind, lt uint64, known bool, d mem.Block) {
	if f.cet != nil {
		f.cet.EpochBegin(b, k, lt, known, d)
	}
}

func (f fanEpoch) EpochData(b mem.BlockAddr, d mem.Block) {
	if f.cet != nil {
		f.cet.EpochData(b, d)
	}
}

func (f fanEpoch) EpochEnd(b mem.BlockAddr, k coherence.EpochKind, lt uint64, d mem.Block) {
	if f.cet != nil {
		f.cet.EpochEnd(b, k, lt, d)
	}
	f.cpu.EpochEnd(b)
}

// fanAccess fans cache-access events out to the CET checker and the
// SafetyNet write logger.
type fanAccess struct {
	cet    *core.CacheChecker
	logger *safetynet.Logger
}

func (f fanAccess) Access(b mem.BlockAddr, write bool) {
	if f.cet != nil {
		f.cet.Access(b, write)
	}
	if f.logger != nil {
		f.logger.Access(b, write)
	}
}

// skewDiv divides the raw cycle count into the directory system's
// logical time: one logical tick per skewDiv cycles, with a per-node
// skew of node%skewDiv raw cycles — below the minimum network latency,
// as DVMC's logical-time base requires.
const skewDiv = uint64(8)

// hopLatency is the torus's per-hop pipeline latency in cycles; the
// broadcast tree's per-level latency, treeHopLatency, is a third of it
// plus one.
const (
	hopLatency     = 15
	treeHopLatency = hopLatency/3 + 1
)

// spare is what a system is built on and gives back when it is retired,
// for the next system built (DESIGN.md, "Object lifetimes"): its
// components, one list per type, each re-initialised by its constructor;
// the checkpoint records, the inform messages, and one free list per
// record type the components take, shared by all nodes. Nothing reaches
// a new system uncleared, so a system built on a spare runs exactly as
// one built on an empty spare.
type spare struct {
	kernels sim.FreeList[sim.Kernel]
	mems    sim.FreeList[mem.Memory]
	coh     coherence.Spare
	chk     core.Spare
	cpus    proc.Spare
	net     network.Spare
	sn      safetynet.Spare
	cps     sim.FreeList[checkpointState]
	informs core.InformPool
}

// spares holds the spares of retired systems. NewSystem draws one, or an
// empty spare when none is idle, and Retire puts it back. Which spare a
// system draws depends on the schedule; what it computes cannot. It is a
// pointer so that a test can put in its place a pool that hands out a
// spare of its choosing.
var spares = &sync.Pool{New: func() any { return new(spare) }}

// NewSystem assembles a multiprocessor running the given workload: one
// thread per node, built on the storage of a retired system if one is
// idle (see Retire).
func NewSystem(cfg Config, w Workload) (*System, error) { return newSystem(cfg, w, nil) }

// newSystem is NewSystem with oracle, when non-nil, receiving every
// trace event as it is emitted: how RunJudged's stream checker rides
// along with the run.
func newSystem(cfg Config, w Workload, oracle trace.Sink) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	w = w.WithThreads(cfg.Nodes).WithModel(cfg.Model)

	// At most four system-wide components (torus, tree, SafetyNet manager,
	// telemetry sampler) and six per node (home, controller, MET, CET,
	// logger, core).
	sp, n := spares.Get().(*spare), cfg.Nodes
	s := &System{cfg: cfg, kernel: sp.kernels.Get().Init(4 + 6*n), sp: sp,
		ctrls: make([]coherence.Controller, 0, n), homes: make([]coherence.Home, 0, n), clocks: make([]*coherence.SkewedClock, 0, n),
		cpus: make([]*proc.CPU, 0, n), progs: make([]proc.Program, 0, n), uo: make([]*core.UniprocChecker, 0, n),
		reorder: make([]*core.ReorderChecker, 0, n), met: make([]*core.MemChecker, 0, n), cet: make([]*core.CacheChecker, 0, n),
		snLoggers: make([]*safetynet.Logger, 0, n)}
	rng := sim.NewRand(cfg.Seed)
	now := s.kernel.Now
	sink := s.sink()

	if cfg.Trace.Enabled {
		rec, err := trace.NewRecorder(cfg.TraceMeta())
		if err != nil {
			return nil, err
		}
		s.rec = rec
		s.tracer = rec
	}
	if oracle != nil {
		if s.tracer != nil {
			s.tracer = trace.TeeSink{A: s.tracer, B: oracle}
		} else {
			s.tracer = oracle
		}
	}

	s.torus = sp.net.NewTorus(n, cfg.bytesPerCycle(), hopLatency, rng.Fork(1000))
	s.kernel.Register(s.torus)
	if cfg.Protocol == Snooping {
		s.bcast = sp.net.NewBroadcastTree(n, cfg.bytesPerCycle(), treeHopLatency)
		s.kernel.Register(s.bcast)
	}

	// The directory system's logical time: a slow physical clock with
	// per-node skew below the minimum network latency (see skewDiv).
	nodeClock := func(n int) coherence.LogicalClock {
		if cfg.Protocol == Snooping {
			s.clocks = append(s.clocks, nil)
			return snoopClock{bt: s.bcast}
		}
		ck := coherence.NewSkewedClock(now, uint64(n)%skewDiv, skewDiv)
		s.clocks = append(s.clocks, ck)
		return ck
	}

	// SafetyNet manager must tick first so checkpoints capture
	// cycle-start state.
	if cfg.SafetyNet {
		s.snMgr = sp.sn.NewManager(cfg.SNConfig, s.capture, s.restore)
		s.snMgr.SetReleaseFunc(s.release)
		s.kernel.Register(s.snMgr)
	}

	for n := 0; n < cfg.Nodes; n++ {
		nid := network.NodeID(n)
		clock := nodeClock(n)

		// Coherence substrate.
		var ctrl coherence.Controller
		var home coherence.Home
		memory := sp.mems.Get().Init()
		var met *core.MemChecker
		if cfg.DVMC.CacheCoherence {
			met = sp.chk.NewMemChecker(nid, cfg.Memory, clock, now, sink)
			s.met = append(s.met, met)
		}
		switch cfg.Protocol {
		case Directory:
			dc := sp.coh.NewDirCache(nid, cfg.Memory, s.torus, clock)
			dh := sp.coh.NewDirHome(nid, cfg.Memory, s.torus, memory)
			s.torus.SetHandler(nid, coherence.DirectoryHandler(dc, dh, s.informFallback(met)))
			ctrl, home = dc, dh
		case Snooping:
			sc := sp.coh.NewSnoopCache(nid, cfg.Memory, s.bcast, s.torus)
			sh := sp.coh.NewSnoopHome(nid, cfg.Memory, s.torus, memory)
			s.bcast.SetHandler(nid, coherence.SnoopingAddressHandler(sc, sh))
			s.torus.SetHandler(nid, coherence.SnoopingDataHandler(sc, sh, s.informFallback(met)))
			ctrl, home = sc, sh
		}
		s.ctrls = append(s.ctrls, ctrl)
		s.homes = append(s.homes, home)
		s.kernel.Register(home)
		s.kernel.Register(ctrl)
		if met != nil {
			home.SetNewBlockListener(met.BlockRequested)
			s.kernel.Register(met)
		}

		// Core.
		prog := w.NewProgram(n, cfg.Seed)
		cpu := sp.cpus.NewCPU(nid, cfg.Proc, cfg.Model, ctrl, prog)
		if s.tracer != nil {
			cpu.AttachTracer(s.tracer)
		}
		s.progs = append(s.progs, prog)
		s.cpus = append(s.cpus, cpu)

		// DVMC checkers.
		var uo *core.UniprocChecker
		var ro *core.ReorderChecker
		if cfg.DVMC.UniprocessorOrdering {
			uo = sp.chk.NewUniprocChecker(nid, cfg.Proc.VCWords, cfg.Model == RMO, sink)
		}
		if cfg.DVMC.AllowableReordering {
			ro = sp.chk.NewReorderChecker(nid, sink)
		}
		if uo != nil || ro != nil {
			// The pipeline's verification stage needs a VC even if only
			// the reorder checker was requested; keep the pairing simple
			// by requiring UO for the verify stage and tolerating a
			// reorder-only configuration without it.
			cpu.AttachDVMC(uo, ro)
		}
		s.uo = append(s.uo, uo)
		s.reorder = append(s.reorder, ro)

		var cet *core.CacheChecker
		if cfg.DVMC.CacheCoherence {
			cet = sp.chk.NewCacheChecker(nid, cfg.Memory, s.torus, clock, now, sink)
			cet.SetInformPool(&sp.informs)
			s.cet = append(s.cet, cet)
			s.kernel.Register(cet)
		}

		var logger *safetynet.Logger
		if cfg.SafetyNet {
			logger = sp.sn.NewLogger(nid, cfg.Memory.HomeOf, s.torus, s.snMgr)
			s.snLoggers = append(s.snLoggers, logger)
			s.kernel.Register(logger)
		}

		ctrl.SetEpochListener(fanEpoch{cet: cet, cpu: cpu})
		if cet != nil || logger != nil {
			ctrl.SetAccessListener(fanAccess{cet: cet, logger: logger})
		}

		s.kernel.Register(cpu)
	}

	// The telemetry sampler (if enabled) ticks after every component so
	// each sample observes the cycle's final state.
	if cfg.Telemetry.Enabled {
		s.sampler = telemetry.NewSampler(s.telemetryMetrics(), cfg.Telemetry.Every)
		s.kernel.Register(s.sampler)
	}
	s.buildSpans(cfg)
	return s, nil
}

// informFallback is the handler for what is not coherence traffic: it
// gives a delivered inform to the MET and releases it, and releases a
// SafetyNet write-log message, which the home only accounts.
// MemChecker.Handle is synchronous and copies everything it retains, so
// release-after-handle is safe.
func (s *System) informFallback(met *core.MemChecker) network.Handler {
	if met == nil && s.snMgr == nil {
		return nil
	}
	return func(m *network.Message) {
		if met != nil {
			met.Handle(m)
		}
		m.Release()
	}
}

// sink returns the violation sink shared by all checkers. A traced run
// records each violation in the trace too.
func (s *System) sink() core.Sink {
	return core.SinkFunc(func(v Violation) {
		s.violations.Violation(v)
		if s.tracer != nil {
			s.tracer.Emit(trace.Event{Kind: trace.EvViolation, Node: uint8(v.Node),
				Seq: uint64(v.Kind), Addr: mem.Addr(v.Block), Time: v.Cycle})
		}
	})
}

// Now returns the current cycle.
func (s *System) Now() sim.Cycle { return s.kernel.Now() }

// Transactions returns the total committed transactions across nodes.
func (s *System) Transactions() uint64 {
	s.running("Transactions")
	var t uint64
	for _, c := range s.cpus {
		t += c.Transactions()
	}
	return t
}

// Run simulates until the system commits the given number of
// transactions (across all nodes) or the cycle budget expires. It returns the results
// and an error if the budget expired first.
func (s *System) Run(transactions uint64, maxCycles uint64) (Results, error) {
	s.running("Run")
	startTxns := s.Transactions()
	done := func() bool {
		return s.Transactions()-startTxns >= transactions
	}
	finished := s.kernel.RunUntil(done, maxCycles)
	res := s.interval()
	if !finished {
		return res, fmt.Errorf("dvmc: %d of %d transactions after %d cycles",
			s.Transactions()-startTxns, transactions, maxCycles)
	}
	return res, nil
}

// RunCycles simulates a fixed number of cycles.
func (s *System) RunCycles(n uint64) Results {
	s.running("RunCycles")
	s.kernel.Run(n)
	return s.interval()
}

// Finished reports whether every thread's program ended and every
// pipeline and write buffer drained. The statistical workload generators
// never finish; explicit finite programs (workload.Custom, dvmc-fuzz) do.
func (s *System) Finished() bool {
	s.running("Finished")
	for _, c := range s.cpus {
		if !c.Finished() {
			return false
		}
	}
	return true
}

// RunToCompletion simulates until the system is settled or the cycle
// budget expires, and reports whether the programs finished within the
// budget. Only finite programs (workload.Custom specs) settle; a
// statistical workload runs the whole budget.
func (s *System) RunToCompletion(maxCycles uint64) (Results, bool) {
	s.running("RunToCompletion")
	s.kernel.RunUntil(s.settled, maxCycles)
	return s.interval(), s.Finished()
}

// DrainCheckers settles a finished run that was driven by Run or
// RunCycles, and leaves an unfinished one as it is.
func (s *System) DrainCheckers() {
	s.running("DrainCheckers")
	if s.Finished() {
		s.kernel.RunUntil(s.settled, uint64(sim.Never))
	}
}

// settled reports whether a run has nothing left to do or to judge: every
// program has finished, no message is on the torus or the broadcast tree,
// and no MET holds an Inform-Epoch it has not judged. Every finite run
// ends here, within its caller's budget; a run cut short of it keeps its
// young informs queued, visible in the checker.met_queue_depth gauge.
func (s *System) settled() bool {
	if !s.Finished() || !s.torus.Quiet() || s.bcast != nil && !s.bcast.Quiet() {
		return false
	}
	for _, m := range s.met {
		if m.QueueDepth() > 0 {
			return false
		}
	}
	return true
}

// Violations returns all detected violations so far.
func (s *System) Violations() []Violation { return s.violations.Violations }

// Tracing reports whether this system captures an execution trace.
func (s *System) Tracing() bool { return s.rec != nil }

// TraceBytes finalises the execution trace and returns its binary
// encoding (feed it to internal/oracle or write it for dvmc-stat check).
// Returns an error if tracing was not enabled. Idempotent; call after the
// run completes — events emitted afterwards are discarded.
func (s *System) TraceBytes() ([]byte, error) {
	if s.rec == nil {
		return nil, fmt.Errorf("dvmc: tracing not enabled (set Config.Trace)")
	}
	return s.rec.Finish()
}

// TraceStats returns recorder accounting (zero value if tracing is off).
func (s *System) TraceStats() trace.RecorderStats {
	if s.rec == nil {
		return trace.RecorderStats{}
	}
	return s.rec.Stats()
}

// checkpointState is the architectural state captured per checkpoint.
// Memory is not copied: each home's memory opens an undo interval (its
// mark) and logs old contents as blocks change, so a checkpoint costs
// what is written after it. What the checkpoint does record is what
// memory does not hold at that moment: the dirty cache lines and each
// core's committed-but-unperformed stores.
type checkpointState struct {
	cycle sim.Cycle // when it was taken
	nodes []nodeCapture
	// dirty is every dirty line and writeback entry, controllers in index
	// order, each controller's lines in array order and then its
	// writeback entries in block order: the order recovery writes them.
	dirty []dirtyLine
	cpus  []proc.ArchState
}

// nodeCapture is one node's bookkeeping in a checkpoint.
type nodeCapture struct {
	mark uint64 // the undo mark of the node's home memory
	// linesEnd is where the node's controller's lines end in dirty and its
	// writeback entries begin; end is where its entries end.
	linesEnd, end int
}

type dirtyLine struct {
	block mem.BlockAddr
	data  mem.Block
}

// lines returns controller i's L2 lines in st.dirty.
func (st *checkpointState) lines(i int) []dirtyLine {
	from := 0
	if i > 0 {
		from = st.nodes[i-1].end
	}
	return st.dirty[from:st.nodes[i].linesEnd]
}

// dirtyMerge builds one controller's part of a checkpoint from the
// previous checkpoint's lines and what ForEachDirty reports changed: a
// checkpoint copies the lines of unchanged sets in runs, and reads only
// the sets that changed. Its two callbacks are bound once, so a capture
// allocates no closure.
type dirtyMerge struct {
	sets int // L2 sets per controller: block b lives in set b mod sets
	st   *checkpointState
	// prev is the controller's lines at the previous checkpoint not yet
	// kept or dropped, in array order.
	prev []dirtyLine
	keep func(s int)
	add  func(b mem.BlockAddr, data mem.Block)
}

func (m *dirtyMerge) setOf(b mem.BlockAddr) int { return int(uint64(b) % uint64(m.sets)) }

// keepBelow keeps the previous lines of the sets below s and drops those
// of set s, whose lines ForEachDirty reports next. set(sets) keeps the
// rest: the controller's lines end there, and its writeback entries
// follow.
func (m *dirtyMerge) keepBelow(s int) {
	n := 0
	for n < len(m.prev) && m.setOf(m.prev[n].block) < s {
		n++
	}
	m.st.dirty = append(m.st.dirty, m.prev[:n]...)
	for n < len(m.prev) && m.setOf(m.prev[n].block) == s {
		n++
	}
	m.prev = m.prev[n:]
	if s == m.sets {
		m.st.nodes[len(m.st.nodes)-1].linesEnd = len(m.st.dirty)
	}
}

func (m *dirtyMerge) addLine(b mem.BlockAddr, data mem.Block) {
	m.st.dirty = append(m.st.dirty, dirtyLine{b, data})
}

// capture builds a checkpoint: one undo mark per home memory, the dirty
// cache lines of the moment, and each core's architectural program
// position with its write-buffer stores. A traced run records the
// checkpoint's sequence number.
func (s *System) capture(now sim.Cycle) any {
	if s.tracer != nil {
		// The manager counts this checkpoint before capturing it: the count
		// is its sequence number.
		s.tracer.Emit(trace.Event{Kind: trace.EvCheckpoint, Seq: s.snMgr.Stats().CheckpointsTaken, Time: now})
	}
	st := s.sp.cps.Get()
	st.cycle = now
	s.captureLines(st)
	for i, h := range s.homes {
		st.nodes[i].mark = h.Memory().Mark()
	}
	for _, c := range s.cpus {
		st.cpus = append(st.cpus, c.ArchSnapshot())
	}
	return st
}

// captureLines records every controller's dirty lines and writeback
// entries into st, one nodeCapture each, keeping lastCp's lines wherever
// a set has not changed since, and makes st the newest checkpoint.
func (s *System) captureLines(st *checkpointState) {
	m := &s.merge
	if m.keep == nil {
		m.sets = s.cfg.Memory.L2Sets
		m.keep, m.add = m.keepBelow, m.addLine
	}
	m.st = st
	for i, c := range s.ctrls {
		m.prev = nil
		if s.lastCp != nil {
			m.prev = s.lastCp.lines(i)
		}
		st.nodes = append(st.nodes, nodeCapture{})
		c.ForEachDirty(m.keep, m.add)
		st.nodes[i].end = len(st.dirty)
	}
	m.st, m.prev = nil, nil
	s.lastCp = st
}

// release lets go of a checkpoint that expired or was squashed by a
// recovery: the memories trim its undo interval (which is what bounds the
// log to the live checkpoints' first writes) and the record is recycled.
// The newest checkpoint leaves only in a recovery, whose restore drops
// lastCp before the next capture.
func (s *System) release(state any) {
	st := state.(*checkpointState)
	for i, h := range s.homes {
		h.Memory().Trim(st.nodes[i].mark)
	}
	s.recycle(st)
}

// recycle returns a checkpoint record to the pool, keeping its buffers.
func (s *System) recycle(st *checkpointState) {
	clear(st.cpus) // drop the program snapshots and pending-store slices
	*st = checkpointState{nodes: st.nodes[:0], dirty: st.dirty[:0], cpus: st.cpus[:0]}
	s.sp.cps.Put(st)
}

// Retire gives the system's components and storage back, for the next
// system built on them; its live checkpoints join the records it
// recycled. Read what the run left first: running the system or reading
// its components (Now, Transactions, Finished, Results, a telemetry
// snapshot) panics from now on. Retiring a retired or nil system does
// nothing.
func (s *System) Retire() {
	if s == nil || s.sp == nil {
		return
	}
	if s.snMgr != nil {
		for _, cp := range s.snMgr.Live() {
			s.recycle(cp.State.(*checkpointState))
		}
	}
	sp := s.sp
	sp.kernels.Put(s.kernel)
	sp.net.Keep(s.torus, s.bcast)
	for _, h := range s.homes {
		sp.mems.Put(h.Memory())
	}
	sp.coh.Keep(s.ctrls, s.homes)
	sp.cpus.Keep(s.cpus)
	sp.chk.Keep(s.met, s.cet, s.uo, s.reorder)
	sp.sn.Keep(s.snMgr, s.snLoggers)
	s.sp, s.kernel, s.torus, s.bcast, s.ctrls, s.homes, s.cpus = nil, nil, nil, nil, nil, nil, nil
	s.met, s.cet, s.uo, s.reorder, s.snMgr, s.snLoggers = nil, nil, nil, nil, nil, nil
	spares.Put(sp)
}

// running panics if s was retired: its components may be another
// system's.
func (s *System) running(op string) {
	if s.sp == nil {
		panic("dvmc: " + op + " on a retired System")
	}
}

// homeMemory returns the memory module block b lives in.
func (s *System) homeMemory(b mem.BlockAddr) *mem.Memory {
	return s.homes[s.cfg.Memory.HomeOf(b)].Memory()
}

// restore reinstalls a checkpoint: caches and networks flush, memories
// and program positions rewind, checkers reset. Memory is rebuilt in four
// steps whose order matters: unwind each home's undo log to the
// checkpoint's mark (memory as it physically was, injected flips
// included); write the recorded dirty lines over it (the owner's copy was
// newer than memory); recompute every block's ECC code word, so the
// restored image, flips and all, is what ECC now vouches for; and only
// then apply the committed-but-unperformed stores — they read-modify-write
// a word, and a read before the re-protect would let ECC "repair" a
// restored flip and count a correction the checkpoint never saw.
func (s *System) restore(state any) {
	st := state.(*checkpointState)
	if s.tracer != nil {
		// Mark the rollback in the trace: committed-but-unperformed
		// operations before this point were discarded, and previously
		// exposed values may legally reappear. The offline oracle clears
		// its pending state at this marker, mirroring the online
		// checkers' Reset below. The marker names the checkpoint's cycle.
		s.tracer.Emit(trace.Event{Kind: trace.EvRecover, Val: mem.Word(st.cycle), Time: s.kernel.Now()})
	}
	if s.spanRec != nil {
		// In-flight transactions are squashed with the networks below;
		// their spans close as aborted.
		s.spanRec.AbortOpen(s.kernel.Now())
	}
	s.torus.Reset()
	if s.bcast != nil {
		s.bcast.Reset()
	}
	for i, h := range s.homes {
		h.Memory().Rewind(st.nodes[i].mark)
	}
	for _, d := range st.dirty {
		s.homeMemory(d.block).WriteBlock(d.block, d.data)
	}
	for _, h := range s.homes {
		h.Memory().Reprotect()
	}
	for _, as := range st.cpus {
		for _, p := range as.Pending {
			s.homeMemory(p.Addr.Block()).WriteWord(p.Addr, p.Val)
		}
	}
	for _, h := range s.homes {
		h.Reset()
	}
	// The caches empty: the next capture reads every line filled since.
	s.lastCp = nil
	for _, c := range s.ctrls {
		c.Reset()
	}
	for i, c := range s.cpus {
		c.Recover(st.cpus[i])
	}
	for _, u := range s.uo {
		if u != nil {
			u.Reset()
		}
	}
	for _, r := range s.reorder {
		if r != nil {
			r.Reset()
		}
	}
	for _, c := range s.cet {
		c.Reset()
	}
	for _, m := range s.met {
		m.Reset()
	}
}

// Recover rolls back to the newest checkpoint preceding errorCycle,
// reporting whether a live checkpoint existed (SafetyNet must be
// enabled).
func (s *System) Recover(errorCycle sim.Cycle) bool {
	if s.snMgr == nil {
		return false
	}
	_, ok := s.snMgr.Recover(errorCycle)
	return ok
}

// RecoveryWindow returns the BER window in cycles (0 without SafetyNet).
func (s *System) RecoveryWindow() sim.Cycle {
	if s.snMgr == nil {
		return 0
	}
	return s.cfg.SNConfig.Window()
}
