package fuzz

import (
	"fmt"

	"dvmc"
	"dvmc/internal/oracle/stream"
	"dvmc/internal/telemetry"
)

// RunResult is the outcome of one case execution.
type RunResult struct {
	Class Class `json:"class"`
	// Online and Oracle are the referees' violation counts.
	Online int `json:"online,omitempty"`
	Oracle int `json:"oracle,omitempty"`
	// Applied/Detected/Masked are the injection ground truth (fault
	// cases only).
	Applied  bool `json:"applied,omitempty"`
	Detected bool `json:"detected,omitempty"`
	Masked   bool `json:"masked,omitempty"`
	// Latency is the online detection latency in cycles.
	Latency uint64 `json:"latency,omitempty"`
	// Cycles is simulated time consumed; Finished whether every thread
	// completed and drained.
	Cycles   uint64 `json:"cycles"`
	Finished bool   `json:"finished"`
	// Panic carries the recovered panic message for crash runs.
	Panic string `json:"panic,omitempty"`
	// Detail is a short human-readable summary of the first finding.
	Detail string `json:"detail,omitempty"`
}

// RunCase executes one case deterministically and classifies the
// outcome. Panics anywhere inside the simulator are recovered into a
// crash classification — the campaign driver relies on this to survive
// hostile generated programs. The returned trace is the run's captured
// execution trace (nil for crashes), written next to corpus reproducers.
// The system is retired once its trace is read.
func RunCase(c *Case) (RunResult, []byte, error) {
	res, trace, sys, err := runCase(c, nil, true)
	sys.Retire()
	return res, trace, err
}

// RunCaseStreamed is RunCase without byte capture: the oracle verdict
// comes from a streaming checker attached as the trace sink, so the
// run never materializes its trace — the bounded-memory mode campaign
// workers use (a soak case's verdict costs the frontier, not the
// trace). Classification is identical to RunCase's: the streaming
// checker's report is byte-identical to the batch oracle's. The system
// is retired once the snapshot is taken.
func RunCaseStreamed(c *Case, instrument bool) (RunResult, *telemetry.Snapshot, error) {
	var observe func(dvmc.Config) dvmc.Config
	if instrument {
		observe = func(cfg dvmc.Config) dvmc.Config { return cfg.WithTelemetry(dvmc.TelemetryOn()) }
	}
	res, _, sys, err := runCase(c, observe, false)
	var snap *telemetry.Snapshot
	if instrument && sys != nil {
		snap = sys.TelemetrySnapshot()
	}
	sys.Retire()
	return res, snap, err
}

// execute is the one place a case becomes a system: run c's program on
// cfg — c.Config() with whatever observers the caller switched on — until
// it settles or the budget runs out (RunToCompletion), or through
// RunInjectionSystem when c carries a fault (whose ground truth is the
// second result; zero otherwise).
func execute(c *Case, cfg dvmc.Config) (*dvmc.System, dvmc.InjectionResult, error) {
	w := c.Program.Spec(caseName(c))
	if c.Fault == nil {
		sys, err := dvmc.NewSystem(cfg, w)
		if err != nil {
			return nil, dvmc.InjectionResult{}, err
		}
		sys.RunToCompletion(c.Budget)
		return sys, dvmc.InjectionResult{}, nil
	}
	inj, err := c.Fault.Injection()
	if err != nil {
		return nil, dvmc.InjectionResult{}, err
	}
	ir, sys, err := dvmc.RunInjectionSystem(cfg, w, inj, c.Budget)
	return sys, ir, err
}

// runCase is RunCase and RunCaseStreamed: observe (nil for none)
// switches on the caller's observers, record keeps the trace bytes, and
// the finished system is returned for the observers to be read (nil for
// a crash, whose storage goes to the collector). The caller retires it,
// unless it hands the system on (ReplayFile).
func runCase(c *Case, observe func(dvmc.Config) dvmc.Config, record bool) (res RunResult, traceBytes []byte, sys *dvmc.System, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = RunResult{Class: ClassCrash, Panic: fmt.Sprint(r)}
			traceBytes = nil
			sys = nil
			err = nil
		}
	}()
	if err := c.Validate(); err != nil {
		return RunResult{}, nil, nil, err
	}
	cfg, err := c.Config()
	if err != nil {
		return RunResult{}, nil, nil, err
	}
	if observe != nil {
		cfg = observe(cfg)
	}
	// The oracle checks the run live: the checker rides along as the
	// trace sink and judges each event as the simulation emits it. Byte
	// capture stays on only when the caller wants reproducer bytes.
	chk := stream.New(cfg.TraceMeta(), stream.Options{})
	cfg.Trace.Sink = chk
	cfg.Trace.Enabled = record

	var ir dvmc.InjectionResult
	sys, ir, err = execute(c, cfg)
	if err != nil {
		return RunResult{}, nil, nil, err
	}
	verdict := streamVerdict(sys, chk)
	res = RunResult{
		Online:   len(verdict.Online),
		Oracle:   oracleCount(verdict),
		Applied:  ir.Applied,
		Detected: ir.Detected,
		Masked:   ir.Masked,
		Latency:  uint64(ir.Latency),
		Cycles:   uint64(sys.Now()),
		Finished: sys.Finished(),
	}
	if c.Fault == nil {
		res.Class, res.Detail = classifyClean(verdict, res.Finished)
	} else {
		res.Class, res.Detail = classifyFault(ir, verdict)
	}
	if record {
		traceBytes, err = sys.TraceBytes()
	}
	return res, traceBytes, sys, err
}

// streamVerdict assembles both referees' conclusions from a finished
// run whose oracle checked it live: the online checkers' violations, and
// the stream checker's report once it is closed.
func streamVerdict(sys *dvmc.System, chk *stream.Checker) dvmc.RunVerdict {
	return dvmc.RunVerdict{
		Online: append([]dvmc.Violation(nil), sys.Violations()...),
		Oracle: chk.Finish(),
	}
}

// classifyClean judges a fault-free run: ground truth says nothing went
// wrong, so any referee noise is a false alarm.
func classifyClean(v dvmc.RunVerdict, finished bool) (Class, string) {
	switch {
	case !v.CleanOnline():
		return ClassFalseAlarm, "online: " + v.Online[0].String()
	case !v.CleanOracle():
		return ClassFalseAlarm, "oracle: " + v.Oracle.Violations[0].String()
	case !finished:
		return ClassHang, "programs did not finish within the cycle budget"
	default:
		return ClassAgreeClean, ""
	}
}

// classifyFault judges an injected-fault run against three verdicts: the
// injection ground truth, the online checkers, and the offline oracle.
//
//   - detected online           -> agree-detect (the oracle may stay
//     silent for fault classes it cannot see, e.g. ECC-corrected flips
//     or protocol hangs; that is incompleteness, not disagreement)
//   - masked, both silent       -> agree-clean (no architectural effect)
//   - masked, oracle flags      -> escape (the masking heuristic was
//     wrong: the oracle proved an architectural effect the online
//     checkers missed)
//   - masked, online flags      -> false-alarm (the checkers cried
//     about a fault with no architectural effect — the nested-recovery
//     and lt-skew classes exist to probe exactly this: faults in the
//     checking machinery itself must not fabricate violations)
//   - unmasked, undetected      -> escape (the classic false negative,
//     whether or not the oracle also caught it)
func classifyFault(ir dvmc.InjectionResult, v dvmc.RunVerdict) (Class, string) {
	switch {
	case !ir.Applied:
		return ClassNotApplied, ""
	case ir.Detected:
		return ClassAgreeDetect, fmt.Sprintf("detected as %v after %d cycles", ir.DetectionKind, ir.Latency)
	case ir.Masked:
		if !v.CleanOracle() {
			return ClassEscape, "masked per ground truth, but oracle: " + v.Oracle.Violations[0].String()
		}
		if !v.CleanOnline() {
			return ClassFalseAlarm, "masked per ground truth, but online: " + v.Online[0].String()
		}
		return ClassAgreeClean, "fault masked without architectural effect"
	case !v.CleanOracle():
		return ClassEscape, "undetected online; oracle: " + v.Oracle.Violations[0].String()
	default:
		return ClassEscape, "undetected by online checkers and oracle"
	}
}

func oracleCount(v dvmc.RunVerdict) int {
	if v.Oracle == nil {
		return 0
	}
	return len(v.Oracle.Violations)
}

func caseName(c *Case) string {
	if c.Name != "" {
		return c.Name
	}
	return "fuzz"
}
