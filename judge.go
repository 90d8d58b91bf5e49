package dvmc

import (
	"fmt"

	"dvmc/internal/oracle"
	"dvmc/internal/oracle/stream"
)

// Class is the differential classification of one run: what the online
// checkers, the trace oracle, and the injected-fault ground truth agreed
// (or disagreed) on.
type Class string

// The classifications. The first four are the differential verdicts:
// agree-clean (no architectural error, fault-free or masked, and both
// referees silent), agree-detect (an injected fault took effect and the
// online checkers caught it), escape (an architectural error went
// undetected online: the fault was neither detected nor masked, or the
// oracle proved an effect the checkers missed — the false negative DVMC
// exists to prevent) and false-alarm (a referee flagged a run with no
// unmasked fault). The last three are bookkeeping: not-applied (the
// fault found no target), hang (a fault-free run did not finish within
// its budget: a liveness bug, reported but no failure) and crash (the
// simulation panicked; always a bug).
const (
	ClassAgreeClean  Class = "agree-clean"
	ClassAgreeDetect Class = "agree-detect"
	ClassEscape      Class = "escape"
	ClassFalseAlarm  Class = "false-alarm"
	ClassNotApplied  Class = "not-applied"
	ClassHang        Class = "hang"
	ClassCrash       Class = "crash"
)

// Failure reports whether this class must fail a campaign (and is worth
// minimizing into a fuzz corpus).
func (c Class) Failure() bool {
	return c == ClassEscape || c == ClassFalseAlarm || c == ClassCrash
}

// Classes lists every classification in reporting order.
var Classes = []Class{
	ClassAgreeClean, ClassAgreeDetect, ClassEscape,
	ClassFalseAlarm, ClassNotApplied, ClassHang, ClassCrash,
}

// Judgement is one judged run: its class, both referees' finding counts
// and the facts the class was judged from. It is the record a fuzz
// campaign keeps per case; an injection's class also reaches its
// InjectionResult, which the Section 6.1 table counts.
type Judgement struct {
	Class Class `json:"class"`
	// The referees' violation counts.
	Online int `json:"online,omitempty"`
	Oracle int `json:"oracle,omitempty"`
	// The injection's ground truth (fault runs only); Latency is its
	// online detection latency in cycles.
	Applied  bool   `json:"applied,omitempty"`
	Detected bool   `json:"detected,omitempty"`
	Masked   bool   `json:"masked,omitempty"`
	Latency  uint64 `json:"latency,omitempty"`
	// Simulated time consumed, and whether every thread completed.
	Cycles   uint64 `json:"cycles"`
	Finished bool   `json:"finished"`
	// Panic is a crash's recovered panic message; Detail a short summary
	// of the finding that decided the class.
	Panic  string `json:"panic,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// RunJudged is the one judged run. It builds cfg's system on w with the
// stream oracle as its trace consumer, so the oracle checks each event
// as the simulation emits it (cfg.Trace still decides whether the bytes
// are kept), runs it — through inj with a budget-cycle observation
// window (System.inject), or with inj nil to completion within budget
// cycles — and classifies it by Classify. It returns the judgement, the
// injection's ground truth with its Class (zero for a fault-free run)
// and the finished system, for its observers to be read; the caller
// retires it. A panic inside the run is recovered into ClassCrash, with
// no system: its storage goes to the collector.
func RunJudged(cfg Config, w Workload, inj *Injection, budget uint64) (j Judgement, ir InjectionResult, s *System, err error) {
	defer func() {
		if r := recover(); r != nil {
			j, ir, s, err = Judgement{Class: ClassCrash, Panic: fmt.Sprint(r)}, InjectionResult{}, nil, nil
		}
	}()
	// Injections arrive from case files and the command line: refuse what
	// the fault table cannot index. Nodes past the last one wrap around.
	switch {
	case inj == nil:
	case inj.Kind == 0 || inj.Kind >= numFaultKinds:
		return j, ir, nil, fmt.Errorf("dvmc: unknown fault kind %v", inj.Kind)
	case inj.Node < 0:
		return j, ir, nil, fmt.Errorf("dvmc: injection node %d is negative", inj.Node)
	}
	chk := stream.New(cfg.TraceMeta(), stream.Options{})
	if s, err = newSystem(cfg, w, chk); err != nil {
		return j, ir, nil, err
	}
	var truth *InjectionResult
	if inj == nil {
		s.RunToCompletion(budget)
	} else {
		ir = s.inject(*inj, budget)
		truth = &ir
	}
	online, found := s.Violations(), chk.Finish().Violations
	j = Judgement{
		Online:   len(online),
		Oracle:   len(found),
		Applied:  ir.Applied,
		Detected: ir.Detected,
		Masked:   ir.Masked,
		Latency:  uint64(ir.Latency),
		Cycles:   uint64(s.Now()),
		Finished: s.Finished(),
	}
	j.Class, j.Detail = Classify(truth, online, found, j.Finished)
	ir.Class = j.Class
	return j, ir, s, nil
}

// Classify is the one rule a run is judged by, from three verdicts: the
// injection ground truth (truth, nil for a fault-free run), the online
// checkers' violations and the trace oracle's findings. finished
// matters to a fault-free run only. It returns the class and a short
// summary of the finding that decided it.
//
// On a fault-free run any referee noise is a false alarm, and silent
// referees on unfinished programs are a hang. A fault run the online
// checkers detected is agree-detect: the oracle may stay silent for
// faults it cannot see (ECC-corrected flips, protocol hangs), which is
// incompleteness, not disagreement. A masked fault is agree-clean while
// both referees stay silent; an oracle finding proves the masking
// heuristic wrong (escape), and an online finding alone is a false
// alarm — the nested-recovery and lt-skew kinds probe exactly that:
// faults in the checking machinery must not fabricate violations. Any
// other undetected fault is an escape, the classic false negative.
func Classify(truth *InjectionResult, online []Violation, found []oracle.Violation, finished bool) (Class, string) {
	if truth == nil {
		switch {
		case len(online) > 0:
			return ClassFalseAlarm, "online: " + online[0].String()
		case len(found) > 0:
			return ClassFalseAlarm, "oracle: " + found[0].String()
		case !finished:
			return ClassHang, "programs did not finish within the cycle budget"
		default:
			return ClassAgreeClean, ""
		}
	}
	switch {
	case !truth.Applied:
		return ClassNotApplied, ""
	case truth.Detected:
		return ClassAgreeDetect, fmt.Sprintf("detected as %v after %d cycles", truth.DetectionKind, truth.Latency)
	case truth.Masked && len(found) > 0:
		return ClassEscape, "masked per ground truth, but oracle: " + found[0].String()
	case truth.Masked && len(online) > 0:
		return ClassFalseAlarm, "masked per ground truth, but online: " + online[0].String()
	case truth.Masked:
		return ClassAgreeClean, "fault masked without architectural effect"
	case len(found) > 0:
		return ClassEscape, "undetected online; oracle: " + found[0].String()
	default:
		return ClassEscape, "undetected by online checkers and oracle"
	}
}
