package dvmc

import (
	"fmt"
	"reflect"
	"testing"

	"dvmc/internal/core"
	"dvmc/internal/sim"
)

// injCfg is the injection-test configuration: scaled geometry, strict
// panics off, short membar-injection interval to bound latencies.
func injCfg() Config {
	cfg := smallConfig()
	cfg.Proc.MembarInjectionInterval = 5000
	// Match the paper's ~100k-cycle recovery window.
	cfg.SNConfig.Interval = 10000
	cfg.SNConfig.Keep = 10
	return cfg
}

func runOne(t *testing.T, cfg Config, kind FaultKind, node int) InjectionResult {
	t.Helper()
	// Stagger injection time with the node so repeated attempts target
	// different dynamic states.
	cycle := Cycle(5000 + 2500*node)
	res, err := RunInjection(cfg, OLTP(), Injection{Kind: kind, Node: node, Cycle: cycle}, 400_000)
	if err != nil {
		t.Fatalf("%v: %v", kind, err)
	}
	return res
}

// TestInjectionDetection checks each fault class individually: every
// applied, architecture-affecting fault must be detected (paper Section
// 6.1: "DVMC detected all injected errors well within the SafetyNet
// recovery time frame").
func TestInjectionDetection(t *testing.T) {
	kinds := []FaultKind{
		FaultWBReorder, FaultWBDrop, FaultWBCorrupt,
		FaultLSQValue, FaultLSQForward,
		FaultCacheDataFlip, FaultMemoryDataFlip,
		FaultSilentWrite, FaultPermissionDrop,
		FaultMsgDataFlip, FaultMsgDrop,
	}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			detectedSomewhere := false
			applied := 0
			for node := 0; node < 4 && !detectedSomewhere; node++ {
				res := runOne(t, injCfg(), kind, node)
				if !res.Applied {
					continue
				}
				applied++
				if res.Detected {
					detectedSomewhere = true
					if res.Latency > sim.Cycle(100_000) {
						t.Errorf("detection latency %d exceeds the recovery window", res.Latency)
					}
					if !res.Recoverable {
						t.Errorf("detected but not recoverable: %v", res)
					}
				} else {
					t.Logf("node %d: %v", node, res)
				}
			}
			if applied == 0 {
				t.Skip("fault had no target in this run")
			}
			if !detectedSomewhere {
				t.Fatalf("%v: applied %d times, never detected", kind, applied)
			}
		})
	}
}

// TestInjectionDetectionSnooping repeats the headline classes on the
// snooping system: each class must be detected on at least one node.
func TestInjectionDetectionSnooping(t *testing.T) {
	cfg := injCfg().WithProtocol(Snooping)
	for _, kind := range []FaultKind{FaultWBCorrupt, FaultCacheDataFlip, FaultSilentWrite, FaultLSQValue} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			applied := 0
			for node := 0; node < 4; node++ {
				res := runOne(t, cfg, kind, node)
				if !res.Applied {
					continue
				}
				applied++
				if res.Detected {
					return
				}
				t.Logf("node %d: %v", node, res)
			}
			if applied == 0 {
				t.Skip("no target")
			}
			t.Fatalf("%v never detected on the snooping system", kind)
		})
	}
}

// TestInjectionAcrossModels runs one representative fault per model. A
// cache flip on a line that is never touched again within the budget is
// masked (ECC corrects it on first use); require detection on at least
// one node per model.
func TestInjectionAcrossModels(t *testing.T) {
	for _, model := range Models {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			cfg := injCfg().WithModel(model)
			for node := 0; node < 4; node++ {
				res := runOne(t, cfg, FaultCacheDataFlip, node)
				if res.Applied && res.Detected {
					return
				}
				t.Logf("node %d: %v", node, res)
			}
			t.Fatalf("cache flip never detected under %v", model)
		})
	}
}

// TestCampaign runs a randomized multi-fault campaign and checks the
// aggregate: every detected fault within the window, none detected but
// unrecoverable, and a high detection rate among applied faults.
func TestCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	cfg := injCfg()
	camp, err := RunCampaign(cfg, Slashcode(), 30, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	applied, detected, masked, undetected := camp.Counts()
	t.Logf("campaign: applied=%d detected=%d masked=%d undetected=%d maxLatency=%d",
		applied, detected, masked, undetected, camp.MaxLatency())
	if applied == 0 {
		t.Fatal("no faults applied")
	}
	if undetected != 0 {
		for _, r := range camp.Results {
			if r.Applied && !r.Detected && !r.Masked {
				t.Errorf("false negative: %v", r)
			}
		}
	}
	if !camp.AllRecoverable() {
		for _, r := range camp.Results {
			if r.Detected && !r.Recoverable {
				t.Errorf("outside recovery window: %v", r)
			}
		}
	}
}

// TestFaultKindStrings pins the fault-kind vocabulary — the corpus,
// case-JSON and -kinds names, in kind order — and checks that the
// faultKinds table is complete: what the exhaustive lint guaranteed arm
// by arm while the kinds lived in switches.
func TestFaultKindStrings(t *testing.T) {
	want := []string{
		"msg-drop", "msg-duplicate", "msg-misroute", "msg-reorder", "msg-data-flip",
		"msg-stale-dup", "msg-reorder-burst", "cache-data-flip", "memory-data-flip",
		"wb-reorder", "wb-drop", "wb-corrupt", "lsq-value-flip", "lsq-bad-forward",
		"ctrl-permission-drop", "ctrl-silent-write", "ctrl-state-corrupt", "lt-skew",
		"nested-recovery",
	}
	kinds := AllFaultKinds()
	if len(kinds) != len(want) || int(numFaultKinds)-1 != len(kinds) {
		t.Fatalf("%d kinds, numFaultKinds-1 = %d, want %d", len(kinds), numFaultKinds-1, len(want))
	}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("kind %d is %q, want %q", k, k, want[i])
		}
		if got, err := ParseFaultKind(k.String()); err != nil || got != k {
			t.Errorf("ParseFaultKind(%q) = %v, %v", k, got, err)
		}
		row := faultKinds[k]
		if row.name == "" || row.arm == nil {
			t.Errorf("kind %d: row without a name or an arm", k)
		}
		if row.undetected != escape && row.undetected != maskedIfDormant && row.undetected != masked {
			t.Errorf("%v: row states no undetected policy", k)
		}
		if row.undetected == maskedIfDormant && row.fired == nil {
			t.Errorf("%v: maskedIfDormant without a fired probe", k)
		}
	}
	if _, err := ParseFaultKind("no-such-kind"); err == nil {
		t.Error("ParseFaultKind accepted an unknown name")
	}
	// Every fuzzed case parses its kind's name a few times.
	if n := testing.AllocsPerRun(10, func() { ParseFaultKind("nested-recovery") }); n != 0 {
		t.Errorf("ParseFaultKind allocates %v objects per successful call", n)
	}
}

// TestFaultKindStringOutOfRange: a span dump can carry any kind byte
// (dvmc-stat timeline prints it), so String must not index the table
// with one.
func TestFaultKindStringOutOfRange(t *testing.T) {
	for _, k := range []FaultKind{0, numFaultKinds, 200, 255} {
		if got, want := k.String(), fmt.Sprintf("FaultKind(%d)", uint8(k)); got != want {
			t.Errorf("FaultKind(%d).String() = %q, want %q", uint8(k), got, want)
		}
	}
}

// TestRunInjectionRejectsBadInput: a negative node or a kind outside the
// table (both reachable from a case file) is an error, not a panic
// inside the run.
func TestRunInjectionRejectsBadInput(t *testing.T) {
	for _, inj := range []Injection{
		{Kind: FaultCtrlStateCorrupt, Node: -1, Cycle: 100},
		{Kind: 0, Node: 0, Cycle: 100},
		{Kind: numFaultKinds, Node: 0, Cycle: 100},
		{Kind: 200, Node: 0, Cycle: 100},
	} {
		if _, s, err := RunInjectionSystem(injCfg(), OLTP(), inj, 1000); err == nil || s != nil {
			t.Errorf("%+v: err = %v, system = %v; want an error and no system", inj, err, s != nil)
		}
	}
	// Nodes past the last one keep their modulo meaning.
	res, err := RunInjection(injCfg(), OLTP(), Injection{Kind: FaultLSQValue, Node: 4 + 1, Cycle: 100}, 1000)
	if err != nil || !res.Applied {
		t.Errorf("node 5 of 4: applied = %v, err = %v", res.Applied, err)
	}
	// A negative campaign size used to panic sizing the injection list.
	if _, err := RunCampaign(injCfg(), OLTP(), -1, 1000); err == nil {
		t.Error("RunCampaign(n = -1) returned no error")
	}
}

func TestInjectionResultString(t *testing.T) {
	r := InjectionResult{Injection: Injection{Kind: FaultWBDrop, Node: 1, Cycle: 5}}
	if r.String() == "" {
		t.Error("empty string")
	}
	r.Applied = true
	if r.String() == "" {
		t.Error("empty string")
	}
	r.Detected = true
	if r.String() == "" {
		t.Error("empty string")
	}
}

// TestCampaignResultCounts checks the aggregation arithmetic over a
// hand-built result set: not-applied results are excluded entirely, and
// applied results partition into detected / masked / undetected.
func TestCampaignResultCounts(t *testing.T) {
	c := CampaignResult{Results: []InjectionResult{
		{},                              // not applied
		{Applied: true, Detected: true}, // detected
		{Applied: true, Detected: true}, // detected
		{Applied: true, Masked: true},   // masked
		{Applied: true},                 // undetected escape
		{Applied: true, Detected: true, Masked: true}, // detection wins over masking
	}}
	applied, detected, masked, undetected := c.Counts()
	if applied != 5 || detected != 3 || masked != 1 || undetected != 1 {
		t.Fatalf("Counts() = %d/%d/%d/%d, want 5/3/1/1", applied, detected, masked, undetected)
	}
}

func TestCampaignResultCountsEmpty(t *testing.T) {
	var c CampaignResult
	applied, detected, masked, undetected := c.Counts()
	if applied+detected+masked+undetected != 0 {
		t.Fatalf("empty campaign counted %d/%d/%d/%d", applied, detected, masked, undetected)
	}
	if got := c.MaxLatency(); got != 0 {
		t.Fatalf("empty campaign MaxLatency = %d", got)
	}
	if !c.AllRecoverable() {
		t.Fatal("empty campaign must be vacuously recoverable")
	}
}

// TestCampaignResultMaxLatency: only detected faults contribute; the
// worst one wins.
func TestCampaignResultMaxLatency(t *testing.T) {
	c := CampaignResult{Results: []InjectionResult{
		{Applied: true, Detected: true, Latency: 40},
		{Applied: true, Detected: true, Latency: 900},
		{Applied: true, Latency: 5000}, // undetected: latency is meaningless
		{Applied: true, Detected: true, Latency: 7},
	}}
	if got := c.MaxLatency(); got != sim.Cycle(900) {
		t.Fatalf("MaxLatency = %d, want 900", got)
	}
}

// TestCampaignResultAllRecoverable: one unrecoverable detection poisons
// the campaign; undetected results do not count against it.
func TestCampaignResultAllRecoverable(t *testing.T) {
	ok := CampaignResult{Results: []InjectionResult{
		{Applied: true, Detected: true, Recoverable: true},
		{Applied: true}, // undetected: recoverability not applicable
	}}
	if !ok.AllRecoverable() {
		t.Fatal("campaign with only recoverable detections reported unrecoverable")
	}
	bad := CampaignResult{Results: []InjectionResult{
		{Applied: true, Detected: true, Recoverable: true},
		{Applied: true, Detected: true, Recoverable: false},
	}}
	if bad.AllRecoverable() {
		t.Fatal("campaign with an unrecoverable detection reported recoverable")
	}
}

// TestInjectionLSQValueFlipRMO pins the RMO-specific regression: an LSQ
// data-path flip on a load that performs at execute must be caught by
// the replay comparison itself. The VC's load-value fill is wired to
// the cache port, so the corrupted register value mismatches the VC
// copy at replay. Before the fix the VC cached the corrupted value and
// replay verified the corruption against itself — such faults were only
// "detected" tens of thousands of cycles later by an unrelated
// false-alarm store mismatch, and became silent escapes once that
// false alarm was fixed.
func TestInjectionLSQValueFlipRMO(t *testing.T) {
	cfg := injCfg().WithModel(RMO)
	applied, detected := 0, 0
	for node := 0; node < 4; node++ {
		res := runOne(t, cfg, FaultLSQValue, node)
		if !res.Applied {
			continue
		}
		applied++
		switch {
		case res.Detected:
			detected++
			if res.DetectionKind != core.UOMismatch {
				t.Errorf("node %d: detected as %v, want the replay's load mismatch", node, res.DetectionKind)
			}
			if res.Latency > 10_000 {
				t.Errorf("node %d: latency %d; replay should catch the flip near commit", node, res.Latency)
			}
		case res.Masked:
			// A mis-speculation flush erased the corruption: legitimate.
		default:
			t.Errorf("node %d: escape: %v", node, res)
		}
	}
	if applied == 0 {
		t.Skip("fault had no target in this run")
	}
	if detected == 0 {
		t.Fatalf("lsq-value-flip under RMO never detected (%d applied)", applied)
	}
}

// TestCampaignMatchesSerialLoop pins the one rule every campaign path
// runs injection i by, and that benchmark/ inlines: a fresh system
// seeded cfg.Seed+i, given the campaign's derived injection i. RunCampaign
// runs on the pool; its results must equal the plain serial loop's.
func TestCampaignMatchesSerialLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	cfg := injCfg()
	const n, budget = 5, 200_000
	for _, w := range []Workload{OLTP(), Slashcode()} {
		camp, err := RunCampaign(cfg, w, n, budget)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]InjectionResult, n)
		for i, inj := range DeriveCampaignInjections(cfg, n) {
			if want[i], err = RunInjection(cfg.WithSeed(cfg.Seed+uint64(i)), w, inj, budget); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(camp.Results, want) {
			t.Fatalf("%s: RunCampaign differs from the serial loop:\n got %+v\nwant %+v", w.Name, camp.Results, want)
		}
	}
}
