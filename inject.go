package dvmc

import (
	"fmt"
	"sort"

	"dvmc/internal/coherence"
	"dvmc/internal/core"
	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/proc"
	"dvmc/internal/sim"
	"dvmc/internal/span"
	"dvmc/internal/stats"
)

// FaultKind enumerates the error classes of the paper's Section 6.1
// campaign: "data and address bit flips; dropped, reordered, mis-routed,
// and duplicated messages; and reorderings and incorrect forwarding in
// the LSQ and write buffer", injected into the LSQ, write buffer,
// caches, interconnect, and memory/cache controllers.
type FaultKind uint8

// Fault kinds.
const (
	// Interconnect faults.
	FaultMsgDrop FaultKind = iota + 1
	FaultMsgDuplicate
	FaultMsgMisroute
	FaultMsgReorder
	FaultMsgDataFlip     // data bit flip in a block-bearing message
	FaultMsgStaleDup     // duplicate replayed a full fault window late
	FaultMsgReorderBurst // burst of messages captured and released in reverse order
	// Storage faults.
	FaultCacheDataFlip
	FaultMemoryDataFlip
	// Write-buffer faults.
	FaultWBReorder
	FaultWBDrop
	FaultWBCorrupt
	// LSQ faults.
	FaultLSQValue
	FaultLSQForward
	// Controller-logic faults.
	FaultPermissionDrop
	FaultSilentWrite
	FaultCtrlStateCorrupt // MOSI state bits of a resident line flipped
	// Logical-time fault.
	FaultTimeSkew // per-node clock skew attacking the Time16 wraparound scrubber
	// BER fault.
	FaultNestedRecovery // a second rollback before any post-recovery checkpoint

	numFaultKinds
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultMsgDrop:
		return "msg-drop"
	case FaultMsgDuplicate:
		return "msg-duplicate"
	case FaultMsgMisroute:
		return "msg-misroute"
	case FaultMsgReorder:
		return "msg-reorder"
	case FaultMsgDataFlip:
		return "msg-data-flip"
	case FaultMsgStaleDup:
		return "msg-stale-dup"
	case FaultMsgReorderBurst:
		return "msg-reorder-burst"
	case FaultCacheDataFlip:
		return "cache-data-flip"
	case FaultMemoryDataFlip:
		return "memory-data-flip"
	case FaultWBReorder:
		return "wb-reorder"
	case FaultWBDrop:
		return "wb-drop"
	case FaultWBCorrupt:
		return "wb-corrupt"
	case FaultLSQValue:
		return "lsq-value-flip"
	case FaultLSQForward:
		return "lsq-bad-forward"
	case FaultPermissionDrop:
		return "ctrl-permission-drop"
	case FaultSilentWrite:
		return "ctrl-silent-write"
	case FaultCtrlStateCorrupt:
		return "ctrl-state-corrupt"
	case FaultTimeSkew:
		return "lt-skew"
	case FaultNestedRecovery:
		return "nested-recovery"
	default:
		return fmt.Sprintf("FaultKind(%d)", uint8(k))
	}
}

// AllFaultKinds lists every injectable fault class.
func AllFaultKinds() []FaultKind {
	out := make([]FaultKind, 0, int(numFaultKinds)-1)
	for k := FaultKind(1); k < numFaultKinds; k++ {
		out = append(out, k)
	}
	return out
}

// finishGraceCycles is how long an injection run keeps observing after
// every finite program has finished and drained: long enough for
// in-flight coherence messages and queued checker informs to settle so a
// late violation still lands inside the observation window, short enough
// that fuzz campaigns do not burn the whole budget on finished systems.
const finishGraceCycles = 2000

// Injection describes one fault to inject.
type Injection struct {
	Kind  FaultKind
	Node  int       // target node (cache/WB/LSQ faults)
	Cycle sim.Cycle // injection time
	// Window parameterises time-windowed faults (0 = kind default): the
	// stale-dup replay delay, the reorder-burst release deadline, and the
	// nested-recovery re-trigger delay.
	Window sim.Cycle
	// Magnitude parameterises sized faults (0 = kind default): the
	// reorder-burst length, and the injected skew in logical-time ticks.
	Magnitude uint64
}

// window returns the effective fault window for time-windowed kinds.
func (inj Injection) window() sim.Cycle {
	if inj.Window > 0 {
		return inj.Window
	}
	switch inj.Kind {
	case FaultMsgStaleDup:
		return 1500 // long enough for the original transaction to retire
	case FaultMsgReorderBurst:
		return 400 // release deadline if the burst never fills
	case FaultNestedRecovery:
		return 2500 // well inside one checkpoint interval
	default:
		return 64
	}
}

// magnitude returns the effective fault magnitude for sized kinds.
func (inj Injection) magnitude() uint64 {
	if inj.Magnitude > 0 {
		return inj.Magnitude
	}
	switch inj.Kind {
	case FaultMsgReorderBurst:
		return 4
	case FaultTimeSkew:
		// Half the Time16 range: the compressed-timestamp scrubber's
		// wraparound worst case.
		return 1 << 15
	default:
		return 1
	}
}

// InjectionResult records what happened.
type InjectionResult struct {
	Injection Injection
	// Applied reports whether the fault could be placed (a cache flip
	// needs a resident block, a WB fault a buffered store, ...).
	Applied bool
	// ActivatedAt is when the fault took architectural effect (armed
	// faults can lie dormant until a matching event occurs).
	ActivatedAt sim.Cycle
	// Detected reports a checker violation, a UO-replay mismatch (which
	// corrects LSQ faults inline), or an ECC correction (cache bit
	// flips) after the injection.
	Detected bool
	// DetectionKind is the first violation's kind.
	DetectionKind core.ViolationKind
	// Latency is detection cycle minus injection cycle.
	Latency sim.Cycle
	// Recoverable reports that a SafetyNet checkpoint older than the
	// injection was still live at detection (the paper's criterion:
	// detection within the ~100k-cycle recovery window).
	Recoverable bool
	// Masked reports an undetected fault whose class can be consumed
	// without architectural effect (a duplicate message absorbed
	// idempotently, a dormant LSQ fault that never triggered, a corrupted
	// line evicted unread). Masked faults are not false negatives.
	Masked bool
}

// String implements fmt.Stringer.
func (r InjectionResult) String() string {
	switch {
	case !r.Applied:
		return fmt.Sprintf("%v@%d node %d: not applied", r.Injection.Kind, r.Injection.Cycle, r.Injection.Node)
	case !r.Detected:
		return fmt.Sprintf("%v@%d node %d: NOT DETECTED", r.Injection.Kind, r.Injection.Cycle, r.Injection.Node)
	default:
		return fmt.Sprintf("%v@%d node %d: detected as %v after %d cycles (recoverable=%v)",
			r.Injection.Kind, r.Injection.Cycle, r.Injection.Node, r.DetectionKind, r.Latency, r.Recoverable)
	}
}

// SetStrict toggles the protocol-anomaly panics of all controllers.
// Injection campaigns disable them so corrupted protocol state becomes
// architecturally visible misbehaviour for DVMC to detect, rather than a
// simulator abort.
func (s *System) SetStrict(strict bool) {
	for _, c := range s.ctrls {
		c.SetStrict(strict)
	}
	for _, h := range s.homes {
		h.SetStrict(strict)
	}
}

// uoEvents counts UO replay mismatches across nodes (LSQ faults are
// detected and corrected inline by the verification stage, so they never
// reach the violation sink).
func (s *System) uoEvents() uint64 {
	var n uint64
	for _, u := range s.uo {
		if u != nil {
			n += u.Stats().LoadMismatches
		}
	}
	return n
}

// eccCorrections counts single-bit cache errors corrected by line ECC.
// The paper requires ECC on all cache lines precisely because silent
// cache corruptions are invisible to the epoch hash chain; a correction
// is a detected-and-recovered error.
func (s *System) eccCorrections() uint64 {
	var n uint64
	for _, c := range s.ctrls {
		n += c.ECCCorrected()
	}
	return n
}

// apply places the fault into the running system. It reports whether a
// target existed.
func (s *System) apply(inj Injection, rng *sim.Rand) bool {
	n := inj.Node % s.cfg.Nodes
	switch inj.Kind {
	case FaultMsgDrop, FaultMsgDuplicate, FaultMsgMisroute, FaultMsgReorder, FaultMsgDataFlip,
		FaultMsgStaleDup, FaultMsgReorderBurst:
		return s.armMessageFault(inj, rng)
	case FaultCacheDataFlip:
		blocks := s.ctrls[n].ResidentBlocks(64)
		if len(blocks) == 0 {
			return false
		}
		b := blocks[rng.Intn(len(blocks))]
		return s.ctrls[n].CorruptCacheBit(b, rng.Intn(mem.BlockBytes*8))
	case FaultMemoryDataFlip:
		memory := s.homes[n].Memory()
		blocks := memory.SampleBlocks(64)
		if len(blocks) == 0 {
			return false
		}
		return memory.CorruptBit(blocks[rng.Intn(len(blocks))], rng.Intn(mem.BlockBytes*8))
	case FaultWBReorder:
		wb, ok := s.cpus[n].WriteBuffer().(*proc.InOrderWB)
		if !ok || wb.Len() < 2 {
			return false
		}
		wb.InjectReorder()
		return true
	case FaultWBDrop:
		switch wb := s.cpus[n].WriteBuffer().(type) {
		case *proc.InOrderWB:
			wb.InjectDropNext()
			return true
		case *proc.OOOWB:
			wb.InjectDropNext()
			return true
		default:
			return false
		}
	case FaultWBCorrupt:
		wb, ok := s.cpus[n].WriteBuffer().(*proc.InOrderWB)
		if !ok {
			return false
		}
		wb.InjectCorruptNext()
		return true
	case FaultLSQValue:
		s.cpus[n].InjectLoadValueFault()
		return true
	case FaultLSQForward:
		s.cpus[n].InjectForwardFault()
		return true
	case FaultPermissionDrop:
		blocks := s.ctrls[n].ResidentBlocks(64)
		for _, b := range blocks {
			if s.ctrls[n].DropPermissionFault(b) {
				return true
			}
		}
		return false
	case FaultSilentWrite:
		// Prefer blocks held without write permission: the interesting
		// controller fault skips the upgrade before writing.
		blocks := s.ctrls[n].ResidentReadOnlyBlocks(64)
		if len(blocks) == 0 {
			blocks = s.ctrls[n].ResidentBlocks(64)
		}
		if len(blocks) == 0 {
			return false
		}
		b := blocks[rng.Intn(len(blocks))]
		return s.ctrls[n].WriteWithoutPermissionFault(b.WordAddr(rng.Intn(mem.WordsPerBlock)),
			mem.Word(rng.Uint64()))
	case FaultCtrlStateCorrupt:
		// Demote direction first: silently downgrade a Modified line to
		// Shared, forgetting its writeback obligation. Only lines whose
		// data actually differs from the home memory image make the
		// ground truth solid — any later exercise of the corruption is
		// then a genuine lost update — so clean lines fall through to the
		// promote direction (upgrade S/O to M without a data grant).
		for _, b := range s.ctrls[n].ResidentBlocks(64) {
			if s.blockDirty(n, b) && s.ctrls[n].CorruptLineStateFault(b, false) {
				return true
			}
		}
		blocks := s.ctrls[n].ResidentReadOnlyBlocks(64)
		if len(blocks) == 0 {
			return false
		}
		return s.ctrls[n].CorruptLineStateFault(blocks[rng.Intn(len(blocks))], true)
	case FaultTimeSkew:
		ck := s.clocks[n]
		if ck == nil {
			// Snooping's logical time is the broadcast sequence number —
			// there is no physical clock to skew.
			return false
		}
		ck.InjectSkew(inj.magnitude() * skewDiv)
		return true
	case FaultNestedRecovery:
		// First rollback now; RunInjectionSystem issues the second one
		// inside the recovery window, before any fresh checkpoint.
		return s.Recover(inj.Cycle)
	default:
		panic(fmt.Sprintf("dvmc: unknown fault kind %v", inj.Kind))
	}
}

// wbFaultFired reports whether node n's write buffer saw an armed fault
// actually alter a drain.
func (s *System) wbFaultFired(n int) bool {
	switch wb := s.cpus[n].WriteBuffer().(type) {
	case *proc.InOrderWB:
		return wb.FaultFired()
	case *proc.OOOWB:
		return wb.FaultFired()
	default:
		return false
	}
}

// blockDirty reports whether node n's cached copy of b differs from the
// block's home memory image. Fault-targeting cold path only.
func (s *System) blockDirty(n int, b mem.BlockAddr) bool {
	img := s.homes[s.cfg.Memory.HomeOf(b)].Memory().ReadBlock(b)
	for w := 0; w < mem.WordsPerBlock; w++ {
		v, ok := s.ctrls[n].PeekWord(b.WordAddr(w))
		if !ok {
			return false
		}
		if v != img[w] {
			return true
		}
	}
	return false
}

// armMessageFault installs a network fault hook: one-shot for the
// single-message kinds, multi-capture for the reorder burst (it stays
// armed until Magnitude coherence messages are held, or the window
// closes).
func (s *System) armMessageFault(inj Injection, rng *sim.Rand) bool {
	kind := inj.Kind
	s.torus.SetFaultWindow(inj.window())
	armed := true
	burst := 0
	var burstAt sim.Cycle
	hook := func(m *network.Message) network.FaultAction {
		if !armed {
			return network.FaultNone
		}
		switch kind {
		case FaultMsgDataFlip:
			if !flipMessageData(m, rng) {
				return network.FaultNone // wait for a block-bearing message
			}
			armed = false
			s.msgFaultActivated = s.Now()
			s.torus.SetFaultHook(nil)
			return network.FaultCorrupt
		case FaultMsgDrop:
			// Dropping an Inform only degrades the checker; drop protocol
			// traffic so the error is architectural.
			if m.Class != network.ClassCoherence {
				return network.FaultNone
			}
			armed = false
			s.msgFaultActivated = s.Now()
			s.torus.SetFaultHook(nil)
			return network.FaultDrop
		case FaultMsgDuplicate:
			if m.Class != network.ClassCoherence {
				return network.FaultNone
			}
			armed = false
			s.msgFaultActivated = s.Now()
			s.torus.SetFaultHook(nil)
			return network.FaultDuplicate
		case FaultMsgMisroute:
			if m.Class != network.ClassCoherence {
				return network.FaultNone
			}
			armed = false
			s.msgFaultActivated = s.Now()
			s.torus.SetFaultHook(nil)
			return network.FaultMisroute
		case FaultMsgReorder:
			if m.Class != network.ClassCoherence {
				return network.FaultNone
			}
			armed = false
			s.msgFaultActivated = s.Now()
			s.torus.SetFaultHook(nil)
			return network.FaultDelay
		case FaultMsgStaleDup:
			if m.Class != network.ClassCoherence {
				return network.FaultNone
			}
			armed = false
			s.msgFaultActivated = s.Now()
			s.torus.SetFaultHook(nil)
			return network.FaultDupStale
		case FaultMsgReorderBurst:
			if m.Class != network.ClassCoherence {
				return network.FaultNone
			}
			if burst == 0 {
				burstAt = s.Now()
				s.msgFaultActivated = s.Now()
			} else if s.Now() >= burstAt+inj.window() {
				// The window closed before the burst filled; the torus
				// already released the partial burst at the deadline.
				armed = false
				s.torus.SetFaultHook(nil)
				return network.FaultNone
			}
			burst++
			if burst >= int(inj.magnitude()) {
				armed = false
				s.torus.SetFaultHook(nil)
			}
			return network.FaultHold
		default:
			panic(fmt.Sprintf("dvmc: armMessageFault with non-message fault %v", kind))
		}
	}
	s.torus.SetFaultHook(hook)
	return true
}

// flipMessageData flips one data bit in a block-bearing payload,
// reporting whether the message carried one.
func flipMessageData(m *network.Message, rng *sim.Rand) bool {
	bit := rng.Intn(mem.BlockBytes * 8)
	word, off := bit/64, bit%64
	switch p := m.Payload.(type) {
	case coherence.MsgData:
		p.Data[word] ^= 1 << off
		m.Payload = p
	case coherence.MsgPutM:
		p.Data[word] ^= 1 << off
		m.Payload = p
	case coherence.MsgRecallAck:
		p.Data[word] ^= 1 << off
		m.Payload = p
	case coherence.MsgSnoopData:
		p.Data[word] ^= 1 << off
		m.Payload = p
	case coherence.MsgSnoopWB:
		p.Data[word] ^= 1 << off
		m.Payload = p
	default:
		return false
	}
	return true
}

// RunInjection builds a system, runs it to the injection point, applies
// the fault, and observes detection. budget bounds the post-injection
// observation window in cycles.
func RunInjection(cfg Config, w Workload, inj Injection, budget uint64) (InjectionResult, error) {
	res, _, err := RunInjectionSystem(cfg, w, inj, budget)
	return res, err
}

// RunInjectionSystem is RunInjection with the finished system returned
// for verdict extraction: dvmc-fuzz's differential check needs the
// execution trace and the online violations alongside the injection
// ground truth, which RunInjection's summary result discards. Finite
// programs (workload.Custom specs) additionally end the observation
// window early once every thread finishes and drains; the statistical
// workload generators never finish, so RunInjection's behaviour is
// unchanged for them.
func RunInjectionSystem(cfg Config, w Workload, inj Injection, budget uint64) (InjectionResult, *System, error) {
	res := InjectionResult{Injection: inj}
	s, err := NewSystem(cfg, w)
	if err != nil {
		return res, nil, err
	}
	s.SetStrict(false)
	rng := sim.NewRand(cfg.Seed ^ (uint64(inj.Cycle)+uint64(inj.Node)*977)*0x9e3779b97f4a7c15)

	// Warm up to the injection point.
	s.kernel.RunUntil(s.Finished, uint64(inj.Cycle))
	baseUO := s.uoEvents()
	baseECC := s.eccCorrections()
	baseViolations := len(s.Violations())

	// Open the fault flight recording: checkpoint, recovery, and
	// violation transitions annotate it while the run observes, and the
	// verdict below closes it. The fire transition is back-filled at
	// close, once dormant-fault activation times are known.
	if s.spanRec != nil {
		s.spanRec.FaultOpen(uint8(inj.Kind), int32(inj.Node%s.cfg.Nodes), s.Now())
		defer func() {
			out := span.OutcomeEscape
			switch {
			case !res.Applied:
				out = span.OutcomeNotApplied
			case res.Detected:
				out = span.OutcomeDetected
			case res.Masked:
				out = span.OutcomeMasked
			}
			if res.Applied && res.ActivatedAt > 0 {
				s.spanRec.FaultEvent(span.LabelFired, res.ActivatedAt, uint64(inj.Kind), 0)
			}
			s.spanRec.FaultClose(out, s.Now())
		}()
	}

	res.Applied = s.apply(inj, rng)
	if !res.Applied {
		return res, s, nil
	}
	if s.spanRec != nil {
		s.spanRec.FaultEvent(span.LabelArmed, s.Now(), uint64(inj.Kind), 0)
	}
	// Stamp activation with the time the fault actually applied, not the
	// requested injection cycle: the warm-up stops early when every
	// thread drains before inj.Cycle, and a violation observed between
	// that point and inj.Cycle would otherwise drive the unsigned
	// latency subtraction below zero. (Found by the coverage campaign:
	// lt-skew runs reported ~2^64-cycle detection latencies.)
	res.ActivatedAt = s.Now()
	detected := func() bool {
		if inj.Kind == FaultNestedRecovery {
			// A legal double rollback injects no architectural error, so
			// there is nothing to "detect": post-recovery checker noise is
			// a false alarm (the differential verdict classifies it), never
			// a detection.
			return false
		}
		if inj.Kind == FaultLSQValue || inj.Kind == FaultLSQForward {
			// Attribute precisely: the corrupted load itself must fail
			// verification (benign mis-speculation mismatches on other
			// loads do not count), or some checker must fire.
			caught, squashed := s.cpus[inj.Node%s.cfg.Nodes].FaultOutcome()
			return caught || squashed || len(s.Violations()) > baseViolations
		}
		// Benign UO mismatches (load-order races) occur in fault-free
		// runs too; they attribute detection only for LSQ faults above.
		_ = baseUO
		return len(s.Violations()) > baseViolations || s.eccCorrections() > baseECC
	}
	// Observe until detection, or — for finite programs — until every
	// thread has finished and drained plus a settling grace (in-flight
	// coherence messages and queued informs can still surface a late
	// violation), or the budget expires. Statistical workloads never
	// finish, so their observation window is the full budget as before.
	grace := uint64(0)
	nestedDone := false
	s.kernel.RunUntil(func() bool {
		if inj.Kind == FaultNestedRecovery && !nestedDone && s.Now() >= inj.Cycle+inj.window() {
			// The second rollback, issued before any post-recovery
			// checkpoint: it re-restores the checkpoint the first recovery
			// used (recovery-during-recovery).
			nestedDone = true
			s.Recover(s.Now())
		}
		if detected() {
			return true
		}
		if s.Finished() {
			grace++
			return grace > finishGraceCycles
		}
		return false
	}, budget)
	if !detected() {
		// Give the MET a final ordered pass over settled informs.
		s.DrainCheckers()
	}
	// Dormant-fault activation time, where the system can report it.
	switch inj.Kind {
	case FaultLSQValue, FaultLSQForward:
		if at, ok := s.cpus[inj.Node%s.cfg.Nodes].FaultActivatedAt(); ok {
			res.ActivatedAt = at
		}
	case FaultCtrlStateCorrupt:
		// The corrupted state bits can sit unexercised for a long time;
		// the architectural error begins when a store performs under (or
		// a dirty copy is lost in) the corrupted state.
		if at, ok := s.ctrls[inj.Node%s.cfg.Nodes].StateFaultFired(); ok {
			res.ActivatedAt = at
		}
	default:
		// Other fault kinds activate at injection; ActivatedAt is set
		// where they are armed.
	case FaultMsgDrop, FaultMsgDuplicate, FaultMsgMisroute, FaultMsgReorder, FaultMsgDataFlip,
		FaultMsgStaleDup, FaultMsgReorderBurst:
		if s.msgFaultActivated > 0 {
			res.ActivatedAt = s.msgFaultActivated
		}
	}
	if detected() {
		res.Detected = true
		// Attribute detection latency: back-fill the activation time onto
		// the recorded violation events, populating the per-invariant
		// latency distributions in the telemetry registry.
		s.Telemetry().AttributeInjection(uint64(res.ActivatedAt))
		switch {
		case s.eccCorrections() > baseECC:
			// The flip was corrected in place on first use: detection and
			// recovery coincide; no rollback is needed.
			res.DetectionKind = core.ECCUncorrectable
			res.ActivatedAt = s.Now()
			res.Latency = 0
			res.Recoverable = true
			return res, s, nil
		case len(s.Violations()) > baseViolations:
			res.DetectionKind = s.Violations()[baseViolations].Kind
			res.Latency = s.Violations()[baseViolations].Cycle - res.ActivatedAt
		default:
			if _, squashed := s.cpus[inj.Node%s.cfg.Nodes].FaultOutcome(); squashed &&
				(inj.Kind == FaultLSQValue || inj.Kind == FaultLSQForward) {
				// Erased by a flush before verification: masked.
				res.Detected = false
				res.Masked = true
				return res, s, nil
			}
			res.DetectionKind = core.UOMismatch
			res.Latency = s.Now() - res.ActivatedAt
			// Inline UO-replay detections never reach the violation sink;
			// record their latency directly.
			s.Telemetry().ObserveLatency(core.UOMismatch.String(), uint64(res.Latency))
		}
		if s.snMgr != nil {
			if res.DetectionKind == core.OperationTimeout {
				// A hang produced no wrong architectural state; recovery
				// to any live checkpoint resets the lost protocol state.
				res.Recoverable = len(s.snMgr.Live()) > 0
			} else {
				_, res.Recoverable = s.snMgr.ValidFor(res.ActivatedAt)
			}
		}
		return res, s, nil
	}
	// Undetected: classify maskable outcomes.
	switch inj.Kind {
	case FaultMsgDuplicate, FaultMsgMisroute, FaultMsgReorder, FaultMsgStaleDup, FaultMsgReorderBurst:
		// Control messages are absorbed idempotently when no matching
		// transaction exists (a stale replay or a reversed burst included);
		// the fault left no architectural trace.
		res.Masked = true
	case FaultLSQValue, FaultLSQForward:
		cpu := s.cpus[inj.Node%s.cfg.Nodes]
		if _, activated := cpu.FaultActivatedAt(); !activated {
			res.Masked = true // armed but never triggered within the budget
		} else if _, squashed := cpu.FaultOutcome(); squashed {
			res.Masked = true // a mis-speculation flush erased the corruption
		}
	case FaultCacheDataFlip, FaultMemoryDataFlip:
		// The corrupted line was never consumed within the budget; under
		// ECC it will be corrected on first use.
		res.Masked = true
	case FaultWBCorrupt, FaultWBDrop:
		// Masked only if the armed fault never fired: the program drained
		// no further eligible store within the observation window, so the
		// fault left no architectural trace. A fired fault corrupted or
		// dropped a value on its way to the cache — the VC's per-store
		// value comparison (and the drain check for dropped stores)
		// detects those online, so an undetected fired fault is a genuine
		// escape, not a masking. (The old optimistic heuristic called
		// every undetected WB fault masked and was contradicted by the
		// offline oracle whenever the corrupt value actually performed.)
		res.Masked = !s.wbFaultFired(inj.Node % s.cfg.Nodes)
	case FaultCtrlStateCorrupt:
		// Masked while the corrupted state was never exercised (the line
		// was invalidated or re-granted before a store performed on a
		// promoted line, or before a demoted line's dirty copy was lost)
		// — and also when it fired without any later observation: every
		// post-corruption reuse of the block runs through the MET's epoch
		// checks (the detected runs fire data-propagation-mismatch or
		// epoch-overlap there), and an observed stale value reaches the
		// offline oracle, which the differential verdict turns into an
		// escape. A fired-but-undetected, oracle-silent run therefore had
		// no architecturally visible effect within the budget — latent
		// corruption, the same semantics as the data-flip classes.
		// (Found by the coverage campaign: a demotion firing during the
		// post-drain writeback flush, with no block reuse left to check,
		// was misclassified as an escape.)
		res.Masked = true
	case FaultTimeSkew, FaultNestedRecovery:
		// Skew perturbs only the verification metadata's time base, and a
		// correct double rollback leaves no architectural error: both are
		// probes of the checking machinery itself. Undetected is the
		// expected clean outcome; a bug surfaces as an offline-oracle
		// contradiction (escape) or online noise (false alarm) in the
		// differential verdict.
		res.Masked = true
	case FaultMsgDrop:
		// A fired drop is never maskable — it destroyed a real coherence
		// message. But the hook arms and then waits for eligible traffic;
		// if none passes within the budget — a quiet node, or an
		// injection cycle past the program's drain — nothing was dropped
		// and the fault is masked, the same armed-but-dormant semantics
		// the LSQ and write-buffer classes use. (Found by the coverage
		// campaign: empty-traffic cases were misclassified as escapes.)
		res.Masked = s.msgFaultActivated == 0
	case FaultMsgDataFlip:
		// Same armed-but-dormant rule; and a fired flip whose word is
		// never architecturally consumed within the budget is latent —
		// the in-flight corruption entered a cache line but no load
		// observed it, the same semantics as the cache/memory flip
		// classes. A consumed corrupted value is caught online by the
		// data-propagation check or offline by the oracle's value check,
		// which the differential verdict turns into an escape.
		res.Masked = true
	case FaultPermissionDrop:
		// Dropping a clean copy is architecturally an eviction — the next
		// access misses and refetches the same value, so nothing ever
		// differs. Dropping a dirty copy loses an update, but the loss is
		// observable only when a later access reads the stale home value:
		// the MET's data-propagation check catches that online, and the
		// oracle's value check catches it offline, so the differential
		// verdict turns any observed loss into an escape. Undetected and
		// oracle-silent means the drop was never architecturally consumed
		// within the budget — latent, the same doctrine as the ctrl-state
		// class. (Found by the coverage campaign: clean-copy drops were
		// misclassified as escapes.)
		res.Masked = true
	case FaultSilentWrite:
		// The faulty controller wrote a random word into a resident copy
		// without permission. Only a local load of that exact word can
		// consume the corruption — a remote writer invalidates the rogue
		// copy harmlessly, and a read-only copy is discarded unwritten on
		// eviction. The injector picks a uniform word in the block, so
		// most rogue writes land on words the program never loads; those
		// are latent. A consumed rogue value is caught online by the VC's
		// value comparison or offline by the oracle, which the masked
		// branch of the differential verdict reports as an escape. (Found
		// by the coverage campaign: unconsumed rogue writes were
		// misclassified as escapes.)
		res.Masked = true
	default:
		// FaultWBReorder: an undetected run is an escape, never maskable
		// — a fired reorder swapped two real writebacks on their way to
		// memory.
	}
	return res, s, nil
}

// CampaignResult aggregates an injection campaign. Results is indexed
// by injection number; a zero-value slot (Injection.Kind == 0) is a
// hole — an injection this partial result did not run. Holes let
// shard-sized partials from different workers combine with Merge into
// the same table a serial run produces.
type CampaignResult struct {
	Results []InjectionResult
}

// Occupied reports whether this slot holds an executed injection (fault
// kinds start at 1, so the zero value is recognisably a hole).
func (r InjectionResult) Occupied() bool { return r.Injection.Kind != 0 }

// Merge combines two slot-disjoint partial campaign results into one.
// Each slot must be occupied in at most one argument; because slots are
// disjoint, Merge(a, b) == Merge(b, a) and any association order over a
// set of partials yields the same result — the property the distributed
// fabric's coordinator relies on to be independent of shard completion
// order.
func Merge(a, b CampaignResult) (CampaignResult, error) {
	n := len(a.Results)
	if len(b.Results) > n {
		n = len(b.Results)
	}
	out := CampaignResult{Results: make([]InjectionResult, n)}
	for i := range out.Results {
		var av, bv InjectionResult
		if i < len(a.Results) {
			av = a.Results[i]
		}
		if i < len(b.Results) {
			bv = b.Results[i]
		}
		switch {
		case av.Occupied() && bv.Occupied():
			return CampaignResult{}, fmt.Errorf("dvmc: Merge: slot %d occupied in both partial results", i)
		case av.Occupied():
			out.Results[i] = av
		default:
			out.Results[i] = bv
		}
	}
	return out, nil
}

// Counts returns (applied, detected, masked, undetected) totals.
// Undetected excludes masked faults: it counts only faults that affected
// architectural state without any checker noticing — false negatives.
func (c CampaignResult) Counts() (applied, detected, masked, undetected int) {
	for _, r := range c.Results {
		if !r.Applied {
			continue
		}
		applied++
		switch {
		case r.Detected:
			detected++
		case r.Masked:
			masked++
		default:
			undetected++
		}
	}
	return
}

// KindLatency is one invariant's detection-latency sample across a
// campaign.
type KindLatency struct {
	Kind   core.ViolationKind
	Sample *stats.Sample
}

// LatencyByKind aggregates detection latencies per detecting invariant,
// sorted by invariant name — the campaign-level counterpart of the
// per-run telemetry registry's LatencyByInvariant (each injection runs
// in a fresh System, so per-run registries see one detection each).
func (c CampaignResult) LatencyByKind() []KindLatency {
	byKind := map[core.ViolationKind]*stats.Sample{}
	for _, r := range c.Results {
		if !r.Detected {
			continue
		}
		s := byKind[r.DetectionKind]
		if s == nil {
			s = &stats.Sample{}
			byKind[r.DetectionKind] = s
		}
		s.Add(float64(r.Latency))
	}
	out := make([]KindLatency, 0, len(byKind))
	for k, s := range byKind {
		out = append(out, KindLatency{Kind: k, Sample: s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind.String() < out[j].Kind.String() })
	return out
}

// MaxLatency returns the worst detection latency among detected faults.
func (c CampaignResult) MaxLatency() sim.Cycle {
	var m sim.Cycle
	for _, r := range c.Results {
		if r.Detected && r.Latency > m {
			m = r.Latency
		}
	}
	return m
}

// AllRecoverable reports whether every detected fault was caught while a
// pre-error checkpoint was still live.
func (c CampaignResult) AllRecoverable() bool {
	for _, r := range c.Results {
		if r.Detected && !r.Recoverable {
			return false
		}
	}
	return true
}

// DeriveCampaignInjections precomputes a campaign's n injections
// (random kind, node, and time, per the paper's methodology). The
// sequence is a pure function of cfg.Seed — the same stream RunCampaign
// has always drawn — so any subset of the campaign can be executed
// anywhere and still agree with the serial run.
func DeriveCampaignInjections(cfg Config, n int) []Injection {
	rng := sim.NewRand(cfg.Seed + 0xfa17)
	kinds := AllFaultKinds()
	out := make([]Injection, n)
	for i := range out {
		out[i] = Injection{
			Kind:  kinds[rng.Intn(len(kinds))],
			Node:  rng.Intn(cfg.Nodes),
			Cycle: sim.Cycle(2000 + rng.Intn(20000)),
		}
	}
	return out
}

// RunCampaignSlice executes injections [from, to) of a derived campaign
// into fresh systems and returns a partial CampaignResult of length
// len(injs) with only those slots occupied — the shard unit of the
// distributed fabric. Slot-disjoint partials combine with Merge.
func RunCampaignSlice(cfg Config, w Workload, injs []Injection, budget uint64, from, to int) (CampaignResult, error) {
	out := CampaignResult{Results: make([]InjectionResult, len(injs))}
	if from < 0 || to > len(injs) || from > to {
		return out, fmt.Errorf("dvmc: RunCampaignSlice: range [%d, %d) outside 0..%d", from, to, len(injs))
	}
	for i := from; i < to; i++ {
		r, err := RunInjection(cfg.WithSeed(cfg.Seed+uint64(i)), w, injs[i], budget)
		if err != nil {
			return out, fmt.Errorf("injection %d (%v): %w", i, injs[i].Kind, err)
		}
		out.Results[i] = r
	}
	return out, nil
}

// RunCampaign injects n random faults (random kind, node, and time, per
// the paper's methodology) into fresh systems and aggregates detection.
func RunCampaign(cfg Config, w Workload, n int, budget uint64) (CampaignResult, error) {
	return RunCampaignSlice(cfg, w, DeriveCampaignInjections(cfg, n), budget, 0, n)
}
