package dvmc

import (
	"fmt"

	"dvmc/internal/consistency"
	"dvmc/internal/core"
	"dvmc/internal/mem"
	"dvmc/internal/sim"
	"dvmc/internal/trace"
)

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
	// Class is the run's judged class (RunJudged): the ground truth
	// above audited by both referees.
	Class Class
}

// String implements fmt.Stringer.
func (r InjectionResult) String() string {
	switch {
	case !r.Applied:
		return fmt.Sprintf("%v@%d node %d: not applied", r.Injection.Kind, r.Injection.Cycle, r.Injection.Node)
	case r.Masked && r.Class.Failure():
		return fmt.Sprintf("%v@%d node %d: masked, but judged %s", r.Injection.Kind, r.Injection.Cycle, r.Injection.Node, r.Class)
	case r.Masked:
		return fmt.Sprintf("%v@%d node %d: masked", r.Injection.Kind, r.Injection.Cycle, r.Injection.Node)
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

// RunInjection is the judged injection run (RunJudged): it builds a
// system with the stream oracle riding along, runs it to the injection
// point, applies the fault, observes detection for at most budget cycles
// and retires the system. The result is the injection's ground truth
// with its judged Class; a run that panics is an error.
func RunInjection(cfg Config, w Workload, inj Injection, budget uint64) (InjectionResult, error) {
	j, res, s, err := RunJudged(cfg, w, &inj, budget)
	s.Retire()
	if err == nil && j.Class == ClassCrash {
		err = fmt.Errorf("dvmc: %v injection panicked: %s", inj.Kind, j.Panic)
	}
	return res, err
}

// inject runs a freshly built system to the injection point, applies
// the fault and observes it for at most budget cycles: the injection's
// ground truth, which the system keeps for its telemetry snapshot. A
// finite program (a workload.Custom spec) ends the observation early
// once the system is settled; the statistical workload generators never
// finish, so they observe the whole budget.
func (s *System) inject(inj Injection, budget uint64) (res InjectionResult) {
	defer func() { s.injected = res }()
	res.Injection = inj
	s.SetStrict(false)
	rng := sim.NewRand(s.cfg.Seed ^ (uint64(inj.Cycle)+uint64(inj.Node)*977)*0x9e3779b97f4a7c15)
	row := &faultKinds[inj.Kind]
	n := inj.Node % s.cfg.Nodes

	// Warm up to the injection point.
	s.kernel.RunUntil(s.Finished, uint64(inj.Cycle))
	baseECC := s.eccCorrections()
	baseViolations := len(s.Violations())

	// A traced run closes with the fault's record: armed here, fired at
	// the activation cycle the verdict below settles (0 for a fault that
	// was not applied or stayed dormant), and its outcome.
	fired := true
	if s.tracer != nil {
		armed := s.Now()
		defer func() {
			firedAt := res.ActivatedAt
			if !fired {
				firedAt = 0
			}
			s.tracer.Emit(trace.Event{Kind: trace.EvFault, Node: uint8(n), Seq: uint64(inj.Kind),
				Val: mem.Word(armed), Val2: mem.Word(firedAt), Mask: faultOutcome(res), Time: s.Now()})
		}()
	}

	// The row's defaults stand in for a zero Window and Magnitude.
	eff := inj
	if eff.Window == 0 {
		eff.Window = sim.Cycle(row.window.def)
	}
	if eff.Magnitude == 0 {
		eff.Magnitude = row.magnitude.def
	}
	res.Applied = row.arm(s, n, eff, rng)
	if !res.Applied {
		return res
	}
	// Stamp activation with the time the fault actually applied, not the
	// requested injection cycle: the warm-up stops early when every
	// thread drains before inj.Cycle, and a violation observed between
	// that point and inj.Cycle would otherwise drive the unsigned
	// latency subtraction below zero. (Found by the coverage campaign:
	// lt-skew runs reported ~2^64-cycle detection latencies.)
	res.ActivatedAt = s.Now()
	detected := func() bool {
		switch row.evidence {
		case evidenceNone:
			return false
		case evidenceLSQ:
			caught, squashed := s.cpus[n].FaultOutcome()
			return caught || squashed || len(s.Violations()) > baseViolations
		default:
			return len(s.Violations()) > baseViolations || s.eccCorrections() > baseECC
		}
	}
	// Observe until detection, or until the system is settled with no
	// second rollback pending, or the budget expires. Statistical
	// workloads never settle, so their observation window is the full
	// budget. The loop judges one cycle boundary per pass; RunUntil, whose
	// predicate reads state only, runs to the next boundary at which the
	// judgement can change. Its one time condition is a deadline bounding
	// that run: the second rollback at recoverAgainAt.
	ended := func() bool { return detected() || s.recoverAgainAt == 0 && s.settled() }
	for left := budget; ; {
		if s.recoverAgainAt > 0 && s.Now() >= s.recoverAgainAt {
			// The second rollback, issued before any post-recovery
			// checkpoint: it re-restores the checkpoint the first recovery
			// used (recovery-during-recovery).
			s.recoverAgainAt = 0
			s.Recover(s.Now())
		}
		if ended() || left == 0 {
			break
		}
		n := left
		if s.recoverAgainAt > s.Now() {
			n = min(n, uint64(s.recoverAgainAt-s.Now()))
		}
		from := s.Now()
		s.kernel.RunUntil(ended, n)
		left -= uint64(s.Now() - from)
	}
	// Dormant-fault activation, where the system can report it; the
	// other kinds activated where they were armed.
	if row.fired != nil {
		var at sim.Cycle
		if at, fired = row.fired(s, n); fired && at > 0 {
			res.ActivatedAt = at
		}
	}
	if detected() {
		res.Detected = true
		switch {
		case s.eccCorrections() > baseECC:
			// The flip was corrected in place on first use: detection and
			// recovery coincide; no rollback is needed.
			res.DetectionKind = core.ECCCorrected
			res.ActivatedAt = s.Now()
			res.Latency = 0
			res.Recoverable = true
			return res
		case len(s.Violations()) > baseViolations:
			res.DetectionKind = s.Violations()[baseViolations].Kind
			res.Latency = s.Violations()[baseViolations].Cycle - res.ActivatedAt
		default:
			// Only evidenceLSQ gets here: the verification stage caught
			// the corrupted load, or a flush squashed it first.
			if _, squashed := s.cpus[n].FaultOutcome(); squashed {
				// Erased by a flush before verification: masked.
				res.Detected = false
				res.Masked = true
				return res
			}
			res.DetectionKind = core.UOMismatch
			res.Latency = s.Now() - res.ActivatedAt
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
		return res
	}
	// Undetected: the row's policy says whether that is maskable.
	res.Masked = row.undetected == masked || row.undetected == maskedIfDormant && !fired
	return res
}

// faultOutcome is an injection result's outcome byte in its trace.EvFault
// record.
func faultOutcome(r InjectionResult) consistency.MembarMask {
	switch {
	case !r.Applied:
		return 0
	case r.Detected:
		return 1
	case r.Masked:
		return 2
	default:
		return 3 // escape
	}
}

// CampaignResult aggregates an injection campaign: Results holds one
// result per injection, in injection order.
type CampaignResult struct {
	Results []InjectionResult
}

// Counts returns (applied, detected, masked, undetected, unrecoverable)
// totals by each result's judged Class. Detected counts agree-detect
// runs. Masked counts the faults ground truth calls masked that no
// oracle finding contradicts: agree-clean runs, and false alarms, where
// an online checker fired on a fault with no architectural effect
// (Table.Verdict fails on those). Undetected counts escapes: faults that
// affected architectural state without any checker noticing, a masked
// run the oracle flags included. Unrecoverable counts the detected
// faults no live pre-error checkpoint could roll back.
func (c CampaignResult) Counts() (applied, detected, masked, undetected, unrecoverable int) {
	for _, r := range c.Results {
		switch r.Class {
		case ClassAgreeDetect:
			detected++
			if !r.Recoverable {
				unrecoverable++
			}
		case ClassAgreeClean, ClassFalseAlarm:
			masked++
		case ClassEscape:
			undetected++
		default: // not applied
			continue
		}
		applied++
	}
	return
}

// DeriveCampaignInjections precomputes a campaign's n injections
// (random kind, node, and time, per the paper's methodology). The
// sequence is a pure function of cfg.Seed, so any injection of the
// campaign can be executed anywhere and still agree with the serial run.
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
