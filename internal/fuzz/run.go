package fuzz

import (
	"dvmc"
	"dvmc/internal/telemetry"
)

// RunCase executes one case deterministically as a judged run
// (dvmc.RunJudged), whose recover wrapper turns a panic inside the
// simulator into a crash classification — the campaign driver relies on
// this to survive hostile generated programs. The returned trace is the
// run's captured execution trace (nil for crashes), written next to
// corpus reproducers. The system is retired once its trace is read.
func RunCase(c *Case) (dvmc.Judgement, []byte, error) {
	res, trace, sys, err := runCase(c, nil, true)
	sys.Retire()
	return res, trace, err
}

// RunCaseStreamed is RunCase without byte capture: the judged run's
// stream oracle checks events as they are emitted, so the run never
// materializes its trace — the bounded-memory mode campaign workers use
// (a soak case's verdict costs the frontier, not the trace). The
// classification is RunCase's. The system is retired once the snapshot
// is taken.
func RunCaseStreamed(c *Case, instrument bool) (dvmc.Judgement, *telemetry.Snapshot, error) {
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

// runCase is RunCase and RunCaseStreamed: one judged run of c
// (dvmc.RunJudged). observe (nil for none) switches on the caller's
// observers, and record keeps the trace bytes. The finished system is
// returned for the observers to be read (nil for a crash); the caller
// retires it, unless it hands the system on (ReplayFile).
func runCase(c *Case, observe func(dvmc.Config) dvmc.Config, record bool) (dvmc.Judgement, []byte, *dvmc.System, error) {
	if err := c.Validate(); err != nil {
		return dvmc.Judgement{}, nil, nil, err
	}
	cfg, _ := c.Config() // Validate built it once
	if observe != nil {
		cfg = observe(cfg)
	}
	cfg.Trace.Enabled = record
	var inj *dvmc.Injection
	if c.Fault != nil {
		i, _ := c.Fault.Injection() // Validate converted it once
		inj = &i
	}
	name := c.Name
	if name == "" {
		name = "fuzz"
	}
	res, _, sys, err := dvmc.RunJudged(cfg, c.Program.Spec(name), inj, c.Budget)
	if err != nil || !record || sys == nil {
		return res, nil, sys, err
	}
	traceBytes, err := sys.TraceBytes()
	return res, traceBytes, sys, err
}
