package proc

import (
	"fmt"

	"dvmc/internal/coherence"
	"dvmc/internal/consistency"
	"dvmc/internal/core"
	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
	"dvmc/internal/trace"
)

// uopState tracks an operation through the pipeline.
type uopState uint8

const (
	uFetched uopState = iota + 1
	uExecuting
	uExecuted
)

// uop is one operation in flight. uops are recycled (DESIGN.md, "Object
// lifetimes"): the pipeline holds one through the ROB, pendingOp and
// blockingOp, the cache through at most one demand and one replay
// completion, and it returns to the core's free list only when all of
// those have let go — so a completion that arrives after a squash finds
// squashed set, never a new occupant.
type uop struct {
	// cpu is the core that took the uop. What survives recycling: the
	// completion callbacks handed to the cache (bound on first use), and
	// the buffer the program's snapshot is taken into, which may be
	// another program's, even another program type's.
	cpu      *CPU
	onLoad   func(mem.Word, bool)
	onReplay func(mem.Word, bool)
	onStore  func()
	onRMW    func(mem.Word)
	snapBuf  any

	// inflight counts cache completions issued for this uop and not yet
	// delivered; dropped (below) says the pipeline is done with it.
	inflight  int32
	instrCost int32 // 1 + gap instructions

	op  Op
	seq uint64
	// prevValue and prevValid are the Result that Program.Next was handed
	// for this op (prev).
	prevValue mem.Word

	loadVal     mem.Word
	execReadyAt sim.Cycle
	replayVal   mem.Word

	// The one-byte fields come last, so they share two words and a uop
	// fills a 160-B size class (TestUopSize).
	model   consistency.Model // effective model (Bits32 forces TSO)
	state   uopState
	dropped bool
	// snapped says snapBuf holds the program state before this op was
	// generated (an injected membar, which the program never produced,
	// has none); snapKept that a checkpoint took that buffer
	// (keepSnapshot), so the uop's next life takes its snapshot into a
	// fresh one.
	snapped   bool
	snapKept  bool
	prevValid bool

	forwarded bool
	// speculative marks an executed load whose value may still change
	// (ordered-load models before the perform point).
	speculative bool
	squashed    bool

	committed   bool
	performed   bool
	irrevocable bool // RMW / SC-store issued to the cache

	replayStarted bool
	replayDone    bool
	replayMatch   bool

	injected bool // artificial membar for lost-op detection
}

// CPU is one processor core (or thread context) driving a cache
// controller. It implements sim.Scheduled; the system assembly forwards
// epoch-end events to EpochEnd for load-order mis-speculation squashes.
type CPU struct {
	node  network.NodeID
	cfg   Config
	model consistency.Model
	ctrl  coherence.Controller
	prog  Program

	// rob is the reorder buffer, oldest first: a window of robBuf that
	// slides right as ops retire and moves back to the front when it
	// reaches the end. robBuf starts empty and doubles, up to ROBInstrs,
	// when the window fills half of it, so a short program pays for the
	// ops it keeps in flight and a long one stops growing it once full.
	rob    []*uop
	robBuf []*uop
	// Three lists of ROB entries, each in ROB order, so that execute and
	// verify visit only the ops that can act. Each holds at most the ops
	// in flight, so each has a region of robBuf's size in robBuf's
	// allocation (growROB) and never grows on its own. execQ: the ops not
	// yet issued and the forwarded loads waiting for execReadyAt. fenceQ:
	// the membars and RMWs, the ops a younger load's issue can wait for.
	// replayQ: the executed loads that have neither started replay nor
	// performed (kept only under DVMC). An op leaves each list eagerly,
	// before its uop can be recycled.
	execQ   []*uop
	fenceQ  []*uop
	replayQ []*uop
	// uops is the core's own free list, or its Spare's, which every core
	// of the system shares.
	uops     *sim.FreeList[uop]
	instrs   int // instructions in flight (ops + gaps)
	seqNext  uint64
	finished bool

	// verifyDue says a load may have become free to replay early since
	// verifyStage last looked: one executed, or the head retired, which
	// can take a same-word store out of a load's way or bring a load
	// into the verify window. Nothing else makes one free.
	verifyDue bool

	// Front end.
	pendingOp       *uop
	pendingGap      int
	blockingOp      *uop // fetch stalls until this op's value is ready
	nextResult      Result
	fetchStallUntil sim.Cycle
	lastInject      sim.Cycle

	wb WriteBuffer

	// DVMC checkers; nil when DVMC is disabled.
	uo      *core.UniprocChecker
	reorder *core.ReorderChecker

	// tracer receives commit/perform events for the execution-trace
	// subsystem; nil when tracing is off (the only per-event cost then is
	// one nil check).
	tracer trace.Sink

	// Fault injection (Section 6.1): LSQ value and forwarding faults.
	faultLoadValue   bool
	faultForward     bool
	faultActivated   sim.Cycle
	faultDidActivate bool
	faultUop         *uop // the corrupted load, while it is in flight
	faultCaught      bool
	faultSquashed    bool

	// Watchdog: report a lost operation if the retire head makes no
	// progress for this many cycles (a dropped protocol message hangs
	// the pipeline; the lost-operation invariant still catches it).
	watchdogCycles  sim.Cycle
	headSeq         uint64
	headSince       sim.Cycle
	watchdogFired   bool
	wbProgressAt    sim.Cycle
	wbWatchdogFired bool

	// drainChecked latches the end-of-program VC drain check so it runs
	// once per completion.
	drainChecked bool

	// Sleep/wake guard (DESIGN.md, "The tick contract"). awake is the
	// wake mark: something changed pipeline state since the last run of
	// the pipeline began — a stage of that run, or a wake path since. A
	// run that leaves it clear would repeat itself every cycle, so the
	// core sleeps until a wake path marks it or now reaches wakeAt, the
	// earliest cycle one of the core's own timers comes due; Tick
	// publishes that on slot, the core's place in the kernel, whose
	// LastTick is also the core's "now". accounted is how many ticks the
	// per-cycle state below includes (the last run's, or the last
	// settle's); the ticks since were skipped: idleStall is the stall
	// counter the last run bumped (each skipped tick would bump it
	// again), idleNoHead and idleNoStores record that the watchdog was
	// refreshing headSince and wbProgressAt.
	awake        bool
	wakeAt       sim.Cycle
	slot         sim.Slot
	accounted    uint64
	idleStall    *uint64
	idleNoHead   bool
	idleNoStores bool

	stats Stats
}

var (
	_ sim.Scheduled = (*CPU)(nil)
)

// NewCPU builds a core for the given model. ctrl is the node's cache
// controller; prog the thread's program.
func NewCPU(node network.NodeID, cfg Config, model consistency.Model, ctrl coherence.Controller, prog Program) *CPU {
	return new(CPU).init(node, cfg, model, ctrl, prog, new(sim.FreeList[uop]), new(sim.FreeList[oooEntry]))
}

// init makes c what NewCPU builds, taking its records from uops and
// entries. The uops c's last run left in flight go back first: nothing of
// that run can complete them any more.
func (c *CPU) init(node network.NodeID, cfg Config, model consistency.Model, ctrl coherence.Controller, prog Program, uops *sim.FreeList[uop], entries *sim.FreeList[oooEntry]) *CPU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	for _, u := range c.rob {
		u.inflight = 0
	}
	c.flushFrom(0)
	rob, execQ, fenceQ, replayQ := c.robBuf[:0], c.execQ[:0], c.fenceQ[:0], c.replayQ[:0]
	if len(c.robBuf) > cfg.ROBInstrs {
		rob, execQ, fenceQ, replayQ = nil, nil, nil, nil
	}
	for _, q := range [...][]*uop{rob, execQ, fenceQ, replayQ} {
		clear(q[:cap(q)])
	}
	*c = CPU{node: node, cfg: cfg, model: model, ctrl: ctrl, prog: prog, uops: uops, awake: true, watchdogCycles: 30000,
		rob: rob, robBuf: rob[:cap(rob)], execQ: execQ, fenceQ: fenceQ, replayQ: replayQ,
		wb: newWriteBuffer(c.wb, model, cfg, ctrl, c.storePerformed, c.wake, entries)}
	return c
}

// InjectLoadValueFault arms a one-shot bit flip on the next executed
// load's value (LSQ data-path corruption, Section 6.1).
func (c *CPU) InjectLoadValueFault() {
	c.faultLoadValue = true
	c.wake()
}

// InjectForwardFault arms a one-shot incorrect forwarding: the next
// LSQ/write-buffer forwarded load receives a corrupted value.
func (c *CPU) InjectForwardFault() {
	c.faultForward = true
	c.wake()
}

// FaultActivatedAt returns when an armed LSQ fault actually corrupted a
// value (injection campaigns measure detection latency from activation).
func (c *CPU) FaultActivatedAt() (sim.Cycle, bool) { return c.faultActivated, c.faultDidActivate }

// FaultOutcome reports the fate of an activated LSQ fault: caught means
// the verification stage flagged the corrupted load; squashed means a
// mis-speculation flush erased the corruption before verification (the
// fault left no architectural trace).
func (c *CPU) FaultOutcome() (caught, squashed bool) {
	return c.faultCaught, c.faultSquashed && !c.faultCaught
}

// AttachDVMC enables the Uniprocessor Ordering and Allowable Reordering
// checkers. Call before the first Tick.
func (c *CPU) AttachDVMC(uo *core.UniprocChecker, reorder *core.ReorderChecker) {
	c.uo = uo
	c.reorder = reorder
	c.wake()
}

// AttachTracer enables execution-trace event emission. Call before the
// first Tick. Emission is independent of the DVMC toggles so a no-DVMC
// run can still be verified offline.
func (c *CPU) AttachTracer(t trace.Sink) {
	c.tracer = t
	c.wake()
}

// emitTrace stamps and forwards one trace event with the core's last
// tick. Under its own tick and the later components' that is the current
// cycle; a controller callback that runs under the controller's earlier
// tick stamps the cycle before. The trace codec's signed time deltas
// absorb that lag.
func (c *CPU) emitTrace(ev trace.Event) {
	ev.Node = uint8(c.node)
	ev.Time = c.lastTick()
	c.tracer.Emit(ev)
}

// traceCommitPerformLoad emits the commit and perform records of a load
// at its perform point (they coincide: a load's place in program order
// becomes irrevocable exactly when its value binds architecturally).
// loadVal at this point is the architectural value — after any
// value-update repair by the verification stage. A speculative load may
// legally bind a stale value early and be repaired at retirement, so the
// trace records what the program observes, not the transient binding;
// an unrepaired corruption (checker disabled or defeated) commits the
// corrupt value and the offline oracle's value check catches it.
func (c *CPU) traceCommitPerformLoad(u *uop) {
	if c.tracer == nil {
		return
	}
	ev := trace.Event{
		Kind:  trace.EvCommit,
		Class: consistency.Load,
		Model: u.model,
		Seq:   u.seq,
		Addr:  u.op.Addr,
		Val:   u.loadVal,
		Fwd:   u.forwarded,
	}
	c.emitTrace(ev)
	ev.Kind = trace.EvPerform
	c.emitTrace(ev)
}

// Stats returns core counters, with the stall cycles of a sleeping core
// added in.
func (c *CPU) Stats() Stats {
	c.settle(c.slot.Ticks())
	return c.stats
}

// Finished reports whether the program ended and the pipeline drained.
func (c *CPU) Finished() bool { return c.finished && len(c.rob) == 0 && c.wbEmpty() }

// Transactions returns the number of completed workload transactions.
func (c *CPU) Transactions() uint64 { return c.stats.Transactions }

// WriteBuffer exposes the write buffer for fault injection.
func (c *CPU) WriteBuffer() WriteBuffer { return c.wb }

// ROBLen returns the current reorder-buffer occupancy (telemetry).
func (c *CPU) ROBLen() int { return len(c.rob) }

// WBLen returns the current write-buffer store count (0 when the model
// has no write buffer). Allocation-free; the telemetry sampler reads it
// every sampling tick.
func (c *CPU) WBLen() int {
	if c.wb == nil {
		return 0
	}
	return c.wb.Len()
}

func (c *CPU) wbEmpty() bool { return c.wb == nil || c.wb.Empty() }

// effectiveModel applies the Table 8 rule: 32-bit SPARC v8 code runs
// under TSO even on PSO/RMO systems.
func (c *CPU) effectiveModel(op Op) consistency.Model {
	if op.Bits32 && (c.model == consistency.PSO || c.model == consistency.RMO) {
		return consistency.TSO
	}
	return c.model
}

// Attach implements sim.Scheduled.
func (c *CPU) Attach(s sim.Slot) { c.slot = s }

// lastTick is the core's "now": the cycle of its last tick, whether or
// not the kernel called it (sim.Slot.LastTick).
func (c *CPU) lastTick() sim.Cycle { return c.slot.LastTick() }

// Tick implements sim.Clockable: one core cycle, unless the core sleeps.
// It publishes the cycle the core is next due: the next one while awake,
// wakeAt while asleep.
func (c *CPU) Tick(now sim.Cycle) {
	if c.awake || now >= c.wakeAt {
		c.cycle(now)
	}
	if c.awake {
		c.slot.SleepUntil(now)
	} else {
		c.slot.SleepUntil(c.wakeAt)
	}
}

// cycle runs the pipeline for one cycle and decides whether the core
// sleeps: if no stage changed anything, the next cycle would find the
// same state and do the same nothing, until a wake path or a timer.
func (c *CPU) cycle(now sim.Cycle) {
	c.settle(uint64(now))
	c.accounted = uint64(now) + 1
	c.awake = false
	c.idleStall = nil
	c.retireStage(now)
	c.executeStage(now)
	c.fetchStage(now)
	if c.wb != nil {
		c.wb.Tick(now)
	}
	if c.uo != nil && !c.drainChecked && c.finished && len(c.rob) == 0 && c.wbEmpty() {
		// Program done and write buffer drained: every committed store
		// must have performed. A lingering VC store entry means the
		// machine lost a store (e.g. dropped inside the write buffer).
		c.drainChecked = true
		c.uo.CheckDrained(now)
		c.wake()
	}
	if c.awake {
		return
	}
	c.idleNoHead = c.watchdogOn() && len(c.rob) == 0
	c.idleNoStores = c.watchdogOn() && c.WBLen() == 0
	c.wakeAt = c.nextTimer(now)
}

// wake marks pipeline state as changed and makes the core due. The
// stages call it where they make progress; so does everything that hands
// the core work from outside its own tick: the cache's completion
// callbacks, the write buffer, squashes, Recover, and the Inject and
// Attach hooks.
func (c *CPU) wake() {
	c.awake = true
	c.slot.Wake()
}

// stall counts one retire-stage stall cycle and remembers the counter,
// so the cycles a sleeping core skips are added to the same one.
func (c *CPU) stall(counter *uint64) {
	*counter++
	c.idleStall = counter
}

// settle adds what the ticks skipped since the last accounted one would
// have, given ticks, the number that have passed (a running tick not
// counted): one stall each on the counter the last run stalled on, and
// the watchdog's refresh of its idle stamps to the last skipped cycle.
func (c *CPU) settle(ticks uint64) {
	if ticks <= c.accounted {
		return
	}
	if c.idleStall != nil {
		*c.idleStall += ticks - c.accounted
	}
	if c.idleNoHead {
		c.headSince = sim.Cycle(ticks - 1)
	}
	if c.idleNoStores {
		c.wbProgressAt = sim.Cycle(ticks - 1)
	}
	c.accounted = ticks
}

// nextTimer returns the earliest cycle after now at which the core acts
// without being handed anything: fetch resuming after a squash penalty,
// the membar-injection interval, and the two watchdog deadlines. (A
// forwarded load's execReadyAt needs no entry: it is the cycle after the
// load issued, and issuing is progress, so that cycle runs.)
func (c *CPU) nextTimer(now sim.Cycle) sim.Cycle {
	at := ^sim.Cycle(0)
	due := func(t sim.Cycle) {
		if t > now && t < at {
			at = t
		}
	}
	due(c.fetchStallUntil)
	if c.reorder != nil && c.cfg.MembarInjectionInterval > 0 {
		due(c.lastInject + c.cfg.MembarInjectionInterval)
	}
	if c.watchdogOn() {
		if len(c.rob) > 0 && !c.watchdogFired {
			due(c.headSince + c.watchdogCycles + 1)
		}
		if c.WBLen() > 0 && !c.wbWatchdogFired {
			due(c.wbProgressAt + c.watchdogCycles + 1)
		}
	}
	return at
}

// ---------- fetch ----------

func (c *CPU) fetchStage(now sim.Cycle) {
	if now < c.fetchStallUntil {
		return
	}
	budget := width
	for budget > 0 {
		if c.pendingOp == nil {
			if !c.nextFromProgram(now) {
				return
			}
		}
		if c.pendingOp == nil {
			return
		}
		// Reserve the whole footprint (op + its gap instructions).
		if c.instrs+int(c.pendingOp.instrCost) > c.cfg.ROBInstrs {
			return
		}
		if c.pendingGap > 0 {
			take := c.pendingGap
			if take > budget {
				take = budget
			}
			c.pendingGap -= take
			budget -= take
			c.wake()
			if c.pendingGap > 0 {
				return
			}
		}
		if budget == 0 {
			return
		}
		budget--
		u := c.pendingOp
		c.pendingOp = nil
		c.instrs += int(u.instrCost)
		c.pushROB(u)
		c.wake()
		if u.op.Blocking {
			c.setBlocking(u)
		}
	}
}

// nextFromProgram fills pendingOp, injecting artificial membars and
// honouring Blocking stalls. Returns false if fetch cannot proceed.
func (c *CPU) nextFromProgram(now sim.Cycle) bool {
	if c.blockingOp != nil {
		if !c.blockingValueReady(c.blockingOp) {
			return false
		}
		c.nextResult = Result{Valid: true, Value: c.blockingOp.loadVal}
		c.setBlocking(nil)
		c.wake()
	}
	if c.reorder != nil && c.cfg.MembarInjectionInterval > 0 &&
		now-c.lastInject >= c.cfg.MembarInjectionInterval {
		c.wake()
		c.lastInject = now
		c.stats.InjectedMembars++
		u := c.uops.Get()
		u.cpu = c
		u.op = Op{Kind: OpMembar, Mask: consistency.FullMask}
		u.seq = c.nextSeq()
		u.model = c.model
		u.state = uFetched
		u.instrCost = 1
		u.injected = true
		c.pendingOp = u
		c.pendingGap = 0
		return true
	}
	if c.finished {
		return false
	}
	c.wake()
	u := c.uops.Get()
	u.cpu = c
	u.snapBuf = c.prog.Snapshot(u.snapBuf)
	prev := c.nextResult
	c.nextResult = Result{}
	op, ok := c.prog.Next(prev)
	if !ok {
		c.finished = true
		c.drop(u)
		return false
	}
	cost := 1 + op.Gap
	if cost > c.cfg.ROBInstrs {
		cost = c.cfg.ROBInstrs // huge gaps must still fit the ROB
	}
	u.op = op
	u.seq = c.nextSeq()
	u.model = c.effectiveModel(op)
	u.state = uFetched
	u.instrCost = int32(cost)
	u.snapped = true
	u.prevValue, u.prevValid = prev.Value, prev.Valid
	c.pendingOp = u
	c.pendingGap = op.Gap
	return true
}

// robBufMin is the reorder buffer's first allocation: the ops a short
// fuzz thread keeps in flight.
const robBufMin = 32

// pushROB appends a fetched op to the reorder buffer and its lists.
func (c *CPU) pushROB(u *uop) {
	if len(c.rob) == cap(c.rob) {
		// The window reached the end of the buffer: move it to the front,
		// of a buffer twice the size if it fills half of this one. Every
		// op in flight costs at least one of the ROBInstrs, so that bounds
		// the buffer.
		if n := len(c.robBuf); 2*len(c.rob) >= n && n < c.cfg.ROBInstrs {
			c.growROB(min(max(2*n, robBufMin), c.cfg.ROBInstrs))
		} else {
			k := copy(c.robBuf, c.rob)
			clear(c.robBuf[k:])
			c.rob = c.robBuf[:k]
		}
	}
	c.rob = append(c.rob, u)
	c.execQ = append(c.execQ, u)
	if u.op.Kind == OpMembar || u.op.Kind == OpRMW {
		c.fenceQ = append(c.fenceQ, u)
	}
}

// growROB moves the reorder buffer and its three lists into one
// allocation of n entries each.
func (c *CPU) growROB(n int) {
	buf := make([]*uop, 4*n)
	c.robBuf = buf[:n:n]
	c.rob = c.robBuf[:copy(c.robBuf, c.rob)]
	c.execQ = append(buf[n:n:2*n], c.execQ...)
	c.fenceQ = append(buf[2*n:2*n:3*n], c.fenceQ...)
	c.replayQ = append(buf[3*n:3*n:4*n], c.replayQ...)
}

// olderThan returns list q, in ROB order, without its ops of sequence
// number cut and younger.
func olderThan(q []*uop, cut uint64) []*uop {
	n := len(q)
	for n > 0 && q[n-1].seq >= cut {
		n--
	}
	return q[:n]
}

// compact ends a walk of list q that kept q[:kept] of the q[:i] it
// visited: the unvisited rest closes up behind them.
func compact(q []*uop, kept, i int) []*uop {
	if kept == i {
		return q
	}
	return q[:kept+copy(q[kept:], q[i:])]
}

// dropFirst takes u off the front of list q, if it is there. Removing
// by shifting keeps the list at the start of its region.
func dropFirst(q []*uop, u *uop) []*uop {
	if len(q) == 0 || q[0] != u {
		return q
	}
	return q[:copy(q, q[1:])]
}

// setBlocking changes the op fetch is stalled behind. The front end may
// still be holding an op that has since retired, which is what kept it
// from being recycled.
func (c *CPU) setBlocking(u *uop) {
	old := c.blockingOp
	c.blockingOp = u
	if old != nil && old != u {
		c.reclaim(old)
	}
}

// squash marks an op flushed; the flag is what a late cache completion
// for it finds.
func (c *CPU) squash(u *uop) {
	u.squashed = true
	if u == c.faultUop {
		c.faultSquashed = true
	}
}

// drop is the pipeline letting go of u: it retired, was squashed, or was
// flushed by a recovery.
func (c *CPU) drop(u *uop) {
	u.dropped = true
	if u == c.faultUop {
		c.faultUop = nil
	}
	c.reclaim(u)
}

// reclaim recycles u once nothing holds it: the pipeline dropped it, no
// cache completion is outstanding for it, and fetch is not waiting to read
// its value. It is called wherever one of those three changes.
func (c *CPU) reclaim(u *uop) {
	if !u.dropped || u.inflight > 0 || u == c.blockingOp {
		return
	}
	buf := u.snapBuf
	if u.snapKept {
		buf = nil
	}
	*u = uop{onLoad: u.onLoad, onReplay: u.onReplay, onStore: u.onStore, onRMW: u.onRMW, snapBuf: buf}
	c.uops.Put(u)
}

func (c *CPU) nextSeq() uint64 {
	c.seqNext++
	return c.seqNext
}

// blockingValueReady reports whether a Blocking op's value is available:
// loads at execute, RMWs at perform.
func (c *CPU) blockingValueReady(u *uop) bool {
	switch u.op.Kind {
	case OpLoad:
		return u.state == uExecuted
	case OpRMW:
		return u.performed
	default:
		return true
	}
}

// ---------- execute ----------

// executeStage walks execQ in ROB order: it issues up to width ops from
// the first window not yet issued, and completes the forwarded loads whose
// value is due, stopping at the width-th issue.
func (c *CPU) executeStage(now sim.Cycle) {
	issued := 0
	considered := 0
	// What the ops older than u impose on a load's issue (canIssueLoad),
	// gathered from fenceQ as the walk passes them: the union of the masks
	// of unperformed membars, and whether an unperformed RMW is among
	// them. Membars and RMWs perform only at the retire head, never here.
	var fence consistency.MembarMask
	rmw := false
	f := 0
	q := c.execQ
	kept, i := 0, 0
	for ; i < len(q); i++ {
		u := q[i]
		if issued >= width {
			break
		}
		for ; f < len(c.fenceQ) && c.fenceQ[f].seq < u.seq; f++ {
			if older := c.fenceQ[f]; !older.performed {
				if older.op.Kind == OpMembar {
					fence |= older.op.Mask
				} else {
					rmw = true
				}
			}
		}
		if u.state == uExecuting {
			// A forwarded load: its value is ready the cycle after issue.
			if now >= u.execReadyAt {
				c.loadExecuted(u)
				c.wake()
				continue
			}
			q[kept] = u
			kept++
			continue
		}
		considered++
		if considered > window {
			break
		}
		switch u.op.Kind {
		case OpLoad:
			if c.canIssueLoad(u, fence, rmw) {
				issued++
				c.issueLoad(u, now)
			}
		case OpStore:
			issued++
			u.state = uExecuted
			c.ctrl.PrefetchExclusive(u.op.Addr)
		case OpRMW:
			issued++
			u.state = uExecuted // value comes at perform
			c.ctrl.PrefetchExclusive(u.op.Addr)
		case OpMembar:
			issued++
			u.state = uExecuted
		}
		if u.state == uFetched || u.state == uExecuting && u.forwarded {
			q[kept] = u
			kept++
		}
	}
	c.execQ = compact(q, kept, i)
	if issued > 0 {
		c.wake()
	}
}

// canIssueLoad enforces membar→load ordering and same-word dependences,
// given fence, the union of the masks of the unperformed membars older
// than u, and rmw, whether an unperformed RMW is older than u. A table
// orders a load after a membar when its entry shares a bit with the
// membar's mask, so the union orders the load exactly when one of the
// membars does. An unperformed same-word RMW cannot forward; the load
// waits. RMWs are rare, so only then are the older ones walked.
func (c *CPU) canIssueLoad(u *uop, fence consistency.MembarMask, rmw bool) bool {
	if fence != 0 && consistency.TableFor(u.model).Ordered(
		consistency.Op{Class: consistency.Membar, Mask: fence}, consistency.Op{Class: consistency.Load}) {
		return false
	}
	if !rmw {
		return true
	}
	for _, older := range c.fenceQ {
		if older.seq >= u.seq {
			break
		}
		if older.op.Kind == OpRMW && !older.performed && older.op.Addr == u.op.Addr {
			return false
		}
	}
	return true
}

// issueLoad executes a load: forward from the LSQ (older in-flight
// stores) or write buffer, else access the cache.
func (c *CPU) issueLoad(u *uop, now sim.Cycle) {
	u.state = uExecuting
	// LSQ forwarding: newest older store to the same word.
	for i := len(c.rob) - 1; i >= 0; i-- {
		older := c.rob[i]
		if older.seq >= u.seq {
			continue
		}
		if older.op.Kind == OpStore && older.op.Addr == u.op.Addr {
			u.loadVal = older.op.Data
			u.forwarded = true
			u.execReadyAt = now + 1
			c.stats.ForwardedLoads++
			return
		}
		if older.op.Kind == OpRMW && older.op.Addr == u.op.Addr {
			// canIssueLoad lets us through only if the RMW performed; its
			// written value is f(loadVal).
			u.loadVal = older.op.RMW(older.loadVal)
			u.forwarded = true
			u.execReadyAt = now + 1
			c.stats.ForwardedLoads++
			return
		}
	}
	if c.wb != nil {
		if v, ok := c.wb.Lookup(u.op.Addr); ok {
			u.loadVal = v
			u.forwarded = true
			u.execReadyAt = now + 1
			c.stats.ForwardedLoads++
			return
		}
	}
	if u.onLoad == nil {
		u.onLoad = u.loadDone
	}
	u.inflight++
	c.ctrl.Load(u.op.Addr, network.ClassCoherence, u.onLoad)
}

// loadDone is the demand load's cache completion.
func (u *uop) loadDone(v mem.Word, _ bool) {
	c := u.cpu
	u.inflight--
	if u.squashed {
		c.reclaim(u)
		return
	}
	c.wake()
	u.loadVal = v
	c.loadExecuted(u)
}

// loadExecuted finalises a load's execution. Loads under ordered-load
// models (SC/TSO/PSO, and TSO-mode ops on an RMO system) execute out of
// order speculatively: they squash if the block is invalidated before
// their perform point. RMO-model loads reorder non-speculatively and
// perform here (Table 5).
func (c *CPU) loadExecuted(u *uop) {
	if u.state == uExecuted {
		return
	}
	u.state = uExecuted
	c.verifyDue = true
	c.stats.LoadsExecuted++
	// cacheVal is the value as delivered by the cache port (or the
	// forwarding network), captured before any injected LSQ data-path
	// corruption: the VC's load-value fill is wired to the cache
	// interface, not to the register-file write path, so a value
	// corrupted between the two is caught when replay compares the
	// architectural value against the VC copy. Filling the VC from the
	// corrupted value instead would make the checker verify the
	// corruption against itself and miss every RMO LSQ fault.
	cacheVal := u.loadVal
	if c.faultLoadValue {
		c.faultLoadValue = false
		c.faultActivated = c.lastTick()
		c.faultDidActivate = true
		c.faultUop = u
		u.loadVal ^= 1 << 13
	}
	if c.faultForward && u.forwarded {
		c.faultForward = false
		c.faultActivated = c.lastTick()
		c.faultDidActivate = true
		c.faultUop = u
		u.loadVal ^= 1 << 5
	}
	if u.model == consistency.RMO && !c.olderOrderedLoadInFlight(u) {
		// RMO loads perform at execute (Section 4.1): non-speculative.
		u.performed = true
		c.traceCommitPerformLoad(u)
		if c.reorder != nil {
			c.reorder.OpCommitted(consistency.Load, false)
			c.reorder.OpPerformed(core.PerformedOp{Seq: u.seq, Class: consistency.Load, Model: u.model}, c.lastTick())
		}
		if c.uo != nil {
			c.uo.LoadExecuted(u.op.Addr, cacheVal)
		}
		return
	}
	// Ordered-load behaviour (SC/TSO/PSO, TSO-mode ops on an RMO system,
	// and RMO loads shadowed by an older in-flight ordered load): the
	// value may still change before the perform point, so the load is
	// speculative and performs at verification.
	if !u.forwarded {
		u.speculative = true
	}
	if c.uo != nil {
		c.awaitReplay(u)
	}
}

// awaitReplay enters an executed load into replayQ. Loads execute out of
// order, so it is inserted at its place from the young end.
func (c *CPU) awaitReplay(u *uop) {
	q := append(c.replayQ, u)
	i := len(q) - 1
	for ; i > 0 && q[i-1].seq > u.seq; i-- {
		q[i] = q[i-1]
	}
	q[i] = u
	c.replayQ = q
}

// olderOrderedLoadInFlight reports whether an unperformed load with
// ordered-load semantics (a non-RMO effective model) precedes u in the
// ROB. A younger RMO load must not perform before it — the older load's
// model requires Load→Load ordering against *all* younger loads.
func (c *CPU) olderOrderedLoadInFlight(u *uop) bool {
	for _, o := range c.rob {
		if o.seq >= u.seq {
			return false
		}
		if o.op.Kind == OpLoad && o.model != consistency.RMO && !o.performed {
			return true
		}
		if o.op.Kind == OpRMW && !o.performed {
			return true // the RMW's load half is ordered under TSO
		}
	}
	return false
}

// ---------- retire / verify ----------

// verifyWindow is how many head-of-ROB operations may replay
// concurrently: "multiple operations can be replayed in parallel ... as
// long as they do not access the same address" (Section 4.1). It is
// sized so an L1-hit replay completes before the operation reaches the
// retire head at full commit width.
const verifyWindow = 24

// verifyStage starts replay cache accesses eagerly for committed loads
// near the ROB head, so a VC-miss replay does not serialise retirement.
// A load may only replay early if no older in-flight store or RMW
// touches the same word (its replay would otherwise need the older op's
// VC entry, which is written in program order at the retire head). The
// candidates are replayQ's loads in the window: sequence numbers are not
// contiguous across squashes, so the window ends at its last op's.
func (c *CPU) verifyStage(now sim.Cycle) {
	if c.uo == nil || !c.verifyDue {
		return
	}
	c.verifyDue = false
	if len(c.rob) == 0 {
		return
	}
	last := c.rob[min(verifyWindow, len(c.rob))-1].seq
	q := c.replayQ
	kept, i := 0, 0
	for ; i < len(q) && q[i].seq <= last; i++ {
		u := q[i]
		if c.olderSameWordStore(u) {
			q[kept] = u
			kept++
			continue
		}
		c.startReplay(u, now)
	}
	c.replayQ = compact(q, kept, i)
}

// olderSameWordStore reports whether a store or RMW older than u writes
// u's word.
func (c *CPU) olderSameWordStore(u *uop) bool {
	for _, o := range c.rob {
		if o == u {
			return false
		}
		if (o.op.Kind == OpStore || o.op.Kind == OpRMW) && o.op.Addr == u.op.Addr {
			return true
		}
	}
	return false
}

// startReplay replays a load against the VC, or on a VC miss against
// the cache hierarchy, bypassing the write buffer (the paper's replay
// path).
func (c *CPU) startReplay(u *uop, now sim.Cycle) {
	c.wake()
	hit, match := c.uo.ReplayLoad(u.op.Addr, u.loadVal, now)
	u.replayStarted = true
	if hit {
		u.replayDone = true
		u.replayMatch = match
		return
	}
	if u.onReplay == nil {
		u.onReplay = u.replayLoadDone
	}
	u.inflight++
	c.ctrl.Load(u.op.Addr, network.ClassReplay, u.onReplay)
}

// replayLoadDone is the replay load's cache completion.
func (u *uop) replayLoadDone(v mem.Word, _ bool) {
	c := u.cpu
	u.inflight--
	if u.squashed {
		c.reclaim(u)
		return
	}
	c.wake()
	u.replayVal = v
	u.replayDone = true
	u.replayMatch = c.uo.CompareReplay(u.loadVal, v)
}

func (c *CPU) retireStage(now sim.Cycle) {
	c.verifyStage(now)
	c.watchdog(now)
	budget := width
	for budget > 0 && len(c.rob) > 0 {
		u := c.rob[0]
		if u.state != uExecuted {
			return
		}
		if !u.committed && u.op.Kind == OpMembar {
			// The membar's lost-op snapshot captures the committed
			// counters of everything older, all of which has already been
			// counted (retirement is in order).
			u.committed = true
			c.wake()
			if c.tracer != nil {
				c.emitTrace(trace.Event{
					Kind:  trace.EvCommit,
					Class: consistency.Membar,
					Mask:  u.op.Mask,
					Model: u.model,
					Seq:   u.seq,
				})
			}
			if c.reorder != nil {
				c.reorder.MembarCommitted(u.seq, u.injected)
			}
		}
		done := false
		switch u.op.Kind {
		case OpLoad:
			done = c.retireLoad(u, now)
		case OpStore:
			done = c.retireStore(u, now)
		case OpRMW:
			done = c.retireRMW(u, now)
		case OpMembar:
			done = c.retireMembar(u, now)
		}
		if !done {
			return
		}
		budget--
		c.popHead(u)
	}
}

func (c *CPU) popHead(u *uop) {
	c.wake()
	c.verifyDue = true
	c.rob[0] = nil
	c.rob = c.rob[1:]
	c.fenceQ = dropFirst(c.fenceQ, u)
	c.instrs -= int(u.instrCost)
	c.stats.OpsRetired++
	c.stats.InstrsRetired += uint64(u.instrCost)
	switch u.op.Kind {
	case OpStore, OpRMW:
		c.stats.StoresRetired++
	case OpMembar:
		c.stats.MembarsRetired++
	default:
		// Loads count only toward OpsRetired.
	}
	if u.op.EndTxn {
		c.stats.Transactions++
	}
	c.drop(u)
}

// retireLoad verifies (DVMC) and performs the load.
func (c *CPU) retireLoad(u *uop, now sim.Cycle) bool {
	if c.uo == nil {
		// No verification stage: the load performs at retirement in
		// ordered-load models (RMO performed at execute).
		c.performLoad(u)
		return true
	}
	if !u.replayStarted {
		// The eager verify window skipped this load (same-word conflict
		// with an older store, now retired): replay at the head.
		c.replayQ = dropFirst(c.replayQ, u)
		c.startReplay(u, now)
	}
	if !u.replayDone {
		return false
	}
	if !u.replayMatch {
		if u == c.faultUop {
			c.faultCaught = true
		}
		// Value-update recovery: the replay value IS the load's correct
		// value at its perform point (verification). Retire the load with
		// it and squash only the younger operations that consumed the
		// stale value. Unlike a full squash this guarantees forward
		// progress under block ping-pong.
		u.loadVal = u.replayVal
		c.squashYounger(0) // u is the ROB head: retirement is in order
		c.performLoad(u)
		return true
	}
	c.performLoad(u)
	return true
}

// performLoad marks the perform point of a verified load (ordered-load
// models; RMO loads performed at execute). The load is counted as
// committed here: a load squashed before its perform point re-fetches
// with a fresh sequence number, so counting earlier would double-count
// it and trip the lost-operation check.
func (c *CPU) performLoad(u *uop) {
	u.speculative = false
	if u.performed {
		return // RMO: already performed at execute
	}
	u.performed = true
	c.traceCommitPerformLoad(u)
	if c.reorder != nil {
		c.reorder.OpCommitted(consistency.Load, false)
		c.reorder.OpPerformed(core.PerformedOp{Seq: u.seq, Class: consistency.Load, Model: u.model}, c.lastTick())
	}
}

// retireStore writes the VC and hands the store to the write buffer (or
// the cache directly under SC).
func (c *CPU) retireStore(u *uop, now sim.Cycle) bool {
	if c.uo != nil && !u.irrevocable && !c.uo.CanAllocateStore(u.op.Addr) {
		c.stall(&c.stats.VCFullStalls)
		return false
	}
	if c.model == consistency.SC {
		// No write buffer: the store performs before retirement; its
		// cache miss is on the critical path.
		if !u.irrevocable {
			c.wake()
			u.irrevocable = true
			c.traceCommitStore(u)
			if c.reorder != nil {
				c.reorder.OpCommitted(consistency.Store, false)
			}
			if c.uo != nil {
				c.uo.StoreCommitted(u.op.Addr, u.op.Data)
			}
			if u.onStore == nil {
				u.onStore = u.storeDone
			}
			u.inflight++
			c.ctrl.Store(u.op.Addr, u.op.Data, u.onStore)
		}
		return u.performed
	}
	if !u.irrevocable {
		if !c.wb.Push(u.seq, u.op.Addr, u.op.Data, u.model) {
			c.stall(&c.stats.WBFullStalls)
			return false
		}
		c.wake()
		u.irrevocable = true
		c.traceCommitStore(u)
		if c.reorder != nil {
			c.reorder.OpCommitted(consistency.Store, false)
		}
		if c.uo != nil {
			c.uo.StoreCommitted(u.op.Addr, u.op.Data)
		}
	}
	return true
}

// storeDone is the cache completion of an SC store.
func (u *uop) storeDone() {
	c := u.cpu
	u.inflight--
	if u.squashed {
		c.reclaim(u)
		return
	}
	c.wake()
	u.performed = true
	c.storePerformed(u.seq, u.op.Addr, u.op.Data, u.model)
}

// traceCommitStore emits a store's commit record at the point its place
// in memory order becomes irrevocable (write-buffer insertion, or cache
// issue under SC).
func (c *CPU) traceCommitStore(u *uop) {
	if c.tracer == nil {
		return
	}
	c.emitTrace(trace.Event{
		Kind:  trace.EvCommit,
		Class: consistency.Store,
		Model: u.model,
		Seq:   u.seq,
		Addr:  u.op.Addr,
		Val:   u.op.Data,
	})
}

// storePerformed runs the checks of a store at its perform point, under
// the effective model m it was decoded under: the write buffer's perform
// callback, and an SC store's cache completion.
func (c *CPU) storePerformed(seq uint64, addr mem.Addr, written mem.Word, m consistency.Model) {
	c.wbProgressAt = c.lastTick()
	if c.tracer != nil {
		c.emitTrace(trace.Event{
			Kind:  trace.EvPerform,
			Class: consistency.Store,
			Model: m,
			Seq:   seq,
			Addr:  addr,
			Val:   written,
		})
	}
	if c.uo != nil {
		c.uo.StorePerformed(addr, written, c.lastTick())
	}
	if c.reorder != nil {
		c.reorder.OpPerformed(core.PerformedOp{Seq: seq, Class: consistency.Store, Model: m}, c.lastTick())
	}
}

// retireRMW issues the atomic to the cache at the verify head and waits
// for it to perform. Atomics drain the write buffer first: the RMW's
// store half must not perform before older buffered stores (its TSO-mode
// Store→Store constraint), matching real SPARC implementations where
// atomics flush the store buffer.
func (c *CPU) retireRMW(u *uop, now sim.Cycle) bool {
	if !u.irrevocable {
		if !c.wbEmpty() {
			c.stall(&c.stats.MembarStalls)
			return false
		}
		if c.uo != nil && !c.uo.CanAllocateStore(u.op.Addr) {
			c.stall(&c.stats.VCFullStalls)
			return false
		}
		c.wake()
		u.irrevocable = true
		if c.tracer != nil {
			// The atomic's written value is unknown until it performs (it
			// is a function of the loaded value); the commit record carries
			// a zero value and the perform record both values.
			c.emitTrace(trace.Event{
				Kind:  trace.EvCommit,
				Class: consistency.Store,
				IsRMW: true,
				Model: u.model,
				Seq:   u.seq,
				Addr:  u.op.Addr,
			})
		}
		if c.reorder != nil {
			c.reorder.OpCommitted(consistency.Load, true)
		}
		if u.onRMW == nil {
			u.onRMW = u.rmwDone
		}
		u.inflight++
		c.ctrl.RMW(u.op.Addr, u.op.RMW, u.onRMW)
	}
	return u.performed
}

// rmwDone is the atomic's cache completion: its perform point.
func (u *uop) rmwDone(old mem.Word) {
	c := u.cpu
	u.inflight--
	if u.squashed {
		c.reclaim(u)
		return
	}
	c.wake()
	u.loadVal = old
	newVal := u.op.RMW(old)
	if c.tracer != nil {
		c.emitTrace(trace.Event{
			Kind:  trace.EvPerform,
			Class: consistency.Store,
			IsRMW: true,
			Model: u.model,
			Seq:   u.seq,
			Addr:  u.op.Addr,
			Val:   newVal,
			Val2:  old,
		})
	}
	if c.uo != nil {
		c.uo.StoreCommitted(u.op.Addr, newVal)
		c.uo.StorePerformed(u.op.Addr, newVal, c.lastTick())
	}
	u.performed = true
	if c.reorder != nil {
		c.reorder.OpPerformed(core.PerformedOp{
			Seq: u.seq, Class: consistency.Store, IsRMW: true, Model: u.model}, c.lastTick())
	}
}

// retireMembar stalls until the membar's ordering conditions hold, then
// performs it.
func (c *CPU) retireMembar(u *uop, now sim.Cycle) bool {
	// Older loads have performed (in-order retirement: they retired).
	// Older stores must have performed for #SL/#SS masks: the write
	// buffer must be empty (all buffered stores are older).
	if u.op.Mask&(consistency.SL|consistency.SS) != 0 && !c.wbEmpty() {
		c.stall(&c.stats.MembarStalls)
		return false
	}
	if !u.performed {
		if c.uo != nil && u.op.Mask&(consistency.SL|consistency.SS) != 0 {
			// The write buffer claims every older store performed; the VC
			// must agree, or a store was lost on the way to the cache.
			c.uo.CheckDrained(now)
		}
		u.performed = true
		if c.tracer != nil {
			c.emitTrace(trace.Event{
				Kind:  trace.EvPerform,
				Class: consistency.Membar,
				Mask:  u.op.Mask,
				Model: u.model,
				Seq:   u.seq,
			})
		}
		if c.reorder != nil {
			c.reorder.OpPerformed(core.PerformedOp{
				Seq: u.seq, Class: consistency.Membar, Mask: u.op.Mask, Model: u.model}, c.lastTick())
		}
	}
	return true
}

// watchdogOn reports whether the progress watchdog runs: it reports
// through the reorder checker.
func (c *CPU) watchdogOn() bool { return c.reorder != nil && c.watchdogCycles != 0 }

// watchdog reports a lost operation when the retire head is stuck: a
// dropped coherence message leaves an operation committed forever
// unperformed, which the paper's invariant covers ("it is crucial for
// the checker that all committed operations perform eventually").
func (c *CPU) watchdog(now sim.Cycle) {
	if !c.watchdogOn() {
		return
	}
	// A committed store stuck in the write buffer never stalls the
	// retire head by itself; watch drain progress directly.
	if c.wb != nil && c.wb.Len() > 0 {
		if !c.wbWatchdogFired && now-c.wbProgressAt > c.watchdogCycles {
			c.wbWatchdogFired = true
			c.reorder.Stuck(now, fmt.Sprintf("write buffer made no progress for %d cycles (%d stores pending)",
				now-c.wbProgressAt, c.wb.Len()))
		}
	} else {
		c.wbProgressAt = now
		c.wbWatchdogFired = false
	}
	if len(c.rob) == 0 {
		c.headSince = now
		return
	}
	head := c.rob[0].seq
	if head != c.headSeq {
		c.headSeq = head
		c.headSince = now
		c.watchdogFired = false
		return
	}
	if !c.watchdogFired && now-c.headSince > c.watchdogCycles {
		c.watchdogFired = true
		c.reorder.Stuck(now, fmt.Sprintf("op seq %d stuck at retire head for %d cycles",
			head, now-c.headSince))
	}
}

// ---------- squash ----------

// squashFrom flushes rob[idx] and everything younger after a load-order
// mis-speculation, rewinding the program to just before rob[idx] was
// fetched.
func (c *CPU) squashFrom(idx int) {
	u := c.rob[idx]
	if c.snappedFrom(idx) != u {
		panic("proc: squash target carries no program snapshot")
	}
	c.wake()
	c.stats.SpecSquashes++
	c.rewind(u)
	c.flushFrom(idx)
	for _, r := range c.rob {
		if r.op.Blocking && !c.blockingValueReady(r) {
			c.setBlocking(r)
		}
	}
	c.fetchStallUntil = c.lastTick() + squashPenalty
}

// snappedFrom is the oldest op at or after ROB index i that carries a
// program snapshot, else the pending op if it carries one, else nil.
// Every op the program produced carries one (nextFromProgram); only
// injected membars do not, so a squash target, always a program op, is
// its own answer.
func (c *CPU) snappedFrom(i int) *uop {
	for ; i < len(c.rob); i++ {
		if c.rob[i].snapped {
			return c.rob[i]
		}
	}
	if c.pendingOp != nil && c.pendingOp.snapped {
		return c.pendingOp
	}
	return nil
}

// rewind restores the program to just before u was generated.
func (c *CPU) rewind(u *uop) {
	c.prog.Restore(u.snapBuf)
	c.nextResult = u.prev()
	c.finished = false
}

// flushFrom squashes rob[idx:] and the pending (not yet inserted) op,
// which is younger still; the generator rewind regenerates them. Fetch no
// longer waits on anything.
func (c *CPU) flushFrom(idx int) {
	c.setBlocking(nil)
	if idx < len(c.rob) {
		cut := c.rob[idx].seq
		c.execQ = olderThan(c.execQ, cut)
		c.fenceQ = olderThan(c.fenceQ, cut)
		c.replayQ = olderThan(c.replayQ, cut)
	}
	for _, r := range c.rob[idx:] {
		c.squash(r)
		c.instrs -= int(r.instrCost)
		c.drop(r)
	}
	clear(c.rob[idx:])
	c.rob = c.rob[:idx]
	if c.pendingOp != nil {
		c.drop(c.pendingOp)
		c.pendingOp = nil
	}
	c.pendingGap = 0
}

// ---------- SafetyNet checkpoint support ----------

// ArchState is the processor's contribution to a SafetyNet checkpoint:
// the program's architectural position (after the last retired, or
// performed-irrevocable, operation) plus the pending stores the write
// buffer holds for already-retired work.
type ArchState struct {
	// ProgSnap is a program snapshot the checkpoint owns: nothing writes
	// to it again.
	ProgSnap any
	Prev     Result
	Pending  []PendingStore
	Finished bool
}

// ArchSnapshot captures the architectural state. Call it at the start of
// a cycle (before any controller event), so "performed" flags are
// settled.
func (c *CPU) ArchSnapshot() ArchState {
	st := ArchState{Finished: c.finished}
	if c.wb != nil {
		st.Pending = c.wb.Pending()
	}
	// Skip head operations whose memory effect is already irrevocably
	// applied (SC stores / RMWs that performed but have not retired).
	i := 0
	for i < len(c.rob) && c.rob[i].irrevocable && c.rob[i].performed {
		i++
	}
	// The position is the snapshot of the first remaining op that carries
	// one (injected membars do not).
	if u := c.snappedFrom(i); u != nil {
		return u.keepSnapshot(st)
	}
	// Nothing speculative in flight: the generator's current state is the
	// position. If an irrevocable blocking op (RMW) performed, its value
	// is the pending Result.
	st.ProgSnap = c.prog.Snapshot(nil)
	st.Prev = c.nextResult
	if i > 0 && c.rob[i-1].op.Blocking {
		st.Prev = Result{Valid: true, Value: c.rob[i-1].loadVal}
	}
	if c.blockingOp != nil && c.blockingValueReady(c.blockingOp) {
		st.Prev = Result{Valid: true, Value: c.blockingOp.loadVal}
	}
	return st
}

// keepSnapshot makes u's program position the checkpoint's. The
// checkpoint outlives the uop, so the snapshot changes hands rather than
// being shared: u still reads it for a squash in this life, but gives up
// the buffer, and its next life takes its snapshot into a fresh one.
func (u *uop) keepSnapshot(st ArchState) ArchState {
	st.ProgSnap = u.snapBuf
	st.Prev = u.prev()
	u.snapKept = true
	return st
}

// prev is the Result Program.Next was handed for u's op.
func (u *uop) prev() Result { return Result{Valid: u.prevValid, Value: u.prevValue} }

// Recover rewinds the core to a checkpointed architectural state
// (SafetyNet recovery): the pipeline and write buffer flush, the program
// rewinds, and fetch restarts after the squash penalty.
func (c *CPU) Recover(st ArchState) {
	c.wake()
	c.flushFrom(0)
	if c.wb != nil {
		c.wb.Clear()
	}
	c.prog.Restore(st.ProgSnap)
	c.nextResult = st.Prev
	c.finished = false
	c.fetchStallUntil = c.lastTick() + squashPenalty
}

// squashYounger flushes everything younger than rob[idx] (which
// survives, typically with an updated value), rewinding the program to
// just after it. Used by value-update recovery at verification
// mismatches.
func (c *CPU) squashYounger(idx int) {
	u := c.rob[idx]
	c.wake()
	c.stats.VerifySquashes++
	// Rewind the generator to the first younger op carrying a snapshot;
	// if nothing younger was fetched, it already sits after u.
	if y := c.snappedFrom(idx + 1); y != nil {
		c.rewind(y)
	}
	if u.op.Blocking {
		// Younger ops will be regenerated from u's corrected value.
		c.nextResult = Result{Valid: true, Value: u.loadVal}
	}
	c.flushFrom(idx + 1)
	if u.op.Blocking && !c.blockingValueReady(u) {
		c.setBlocking(u)
	}
	c.fetchStallUntil = c.lastTick() + squashPenalty
}

// EpochEnd implements load-order mis-speculation detection: when another
// processor takes the block away, a speculative load of that block must
// squash — but only if an older load has not yet performed. The oldest
// unperformed load binds its value legally at execute (it is the next
// load to perform; no reordering is observable), which both matches real
// designs and guarantees forward progress under block ping-pong.
func (c *CPU) EpochEnd(b mem.BlockAddr) {
	olderUnperformed := false
	for i, u := range c.rob {
		isLoadClass := u.op.Kind == OpLoad || u.op.Kind == OpRMW
		if u.op.Kind == OpLoad && u.speculative && u.state == uExecuted &&
			u.op.Addr.Block() == b && olderUnperformed {
			c.squashFrom(i)
			return
		}
		if isLoadClass && !u.performed {
			olderUnperformed = true
		}
	}
}

// String implements fmt.Stringer for debugging.
func (c *CPU) String() string {
	return fmt.Sprintf("cpu%d[%v rob=%d instrs=%d]", c.node, c.model, len(c.rob), c.instrs)
}
