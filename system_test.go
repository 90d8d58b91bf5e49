package dvmc

import (
	"reflect"
	"testing"
)

// smallConfig is a fast test geometry.
func smallConfig() Config {
	cfg := ScaledConfig()
	cfg.Nodes = 4
	cfg.Memory.Nodes = 4
	cfg.Proc.MembarInjectionInterval = 20000
	return cfg
}

// smallWorkload shrinks footprints for quick runs.
func smallWorkload() Workload {
	w := Uniform(128, 0.7)
	return w
}

func TestNewSystemValidates(t *testing.T) {
	if _, err := NewSystem(Config{}, smallWorkload()); err == nil {
		t.Error("zero config accepted")
	}
	bad := smallConfig()
	bad.Memory.Nodes = 2 // mismatch
	if _, err := NewSystem(bad, smallWorkload()); err == nil {
		t.Error("node mismatch accepted")
	}
}

func TestSystemRunsTransactions(t *testing.T) {
	s, err := NewSystem(smallConfig(), smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(100, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions < 100 {
		t.Errorf("transactions = %d, want >= 100", res.Transactions)
	}
	if res.Cycles == 0 || res.OpsRetired == 0 {
		t.Errorf("empty results: %v", res)
	}
}

func TestSystemDeterministic(t *testing.T) {
	run := func() Results {
		s, err := NewSystem(smallConfig(), smallWorkload())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(50, 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.OpsRetired != b.OpsRetired || a.L1Misses != b.L1Misses {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}

func TestSystemSeedPerturbs(t *testing.T) {
	mk := func(seed uint64) Results {
		cfg := smallConfig().WithSeed(seed)
		s, err := NewSystem(cfg, smallWorkload())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(50, 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if mk(1).Cycles == mk(2).Cycles {
		t.Log("warning: different seeds gave identical cycle counts (possible, but unlikely)")
	}
}

// TestCleanRunsNoViolations is the central integration property: in
// fault-free execution, DVMC must never report a violation — across all
// four consistency models, both protocols, and all five workloads.
func TestCleanRunsNoViolations(t *testing.T) {
	for _, protocol := range []Protocol{Directory, Snooping} {
		for _, model := range Models {
			for _, w := range Workloads() {
				name := protocol.String() + "/" + model.String() + "/" + w.Name
				t.Run(name, func(t *testing.T) {
					cfg := smallConfig().WithProtocol(protocol).WithModel(model)
					s, err := NewSystem(cfg, w)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := s.Run(60, 8_000_000); err != nil {
						t.Fatalf("run: %v", err)
					}
					if vs := s.Violations(); len(vs) != 0 {
						t.Fatalf("clean run produced %d violations; first: %v", len(vs), vs[0])
					}
				})
			}
		}
	}
}

func TestSystemBudgetError(t *testing.T) {
	s, err := NewSystem(smallConfig(), smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1_000_000, 100); err == nil {
		t.Error("impossible budget did not error")
	}
}

func TestDVMCInformTrafficFlows(t *testing.T) {
	s, err := NewSystem(smallConfig(), smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(100, 4_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Informs == 0 {
		t.Error("no Inform-Epoch messages generated")
	}
	if res.InformsProcessed == 0 {
		t.Error("MET processed no informs")
	}
	if res.MaxLinkByClass == nil {
		t.Fatal("no class breakdown")
	}
}

func TestSafetyNetCheckpointsTaken(t *testing.T) {
	s, err := NewSystem(smallConfig(), smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	res := s.RunCycles(50_000)
	if res.Checkpoints < 4 {
		t.Errorf("checkpoints = %d, want >= 4 at 10k interval over 50k cycles", res.Checkpoints)
	}
	if res.LogMessages == 0 {
		t.Error("no SafetyNet log traffic")
	}
	sn := smallConfig().SNConfig
	if got, want := s.RecoveryWindow(), sn.Interval*Cycle(sn.Keep); got != want {
		t.Errorf("RecoveryWindow() = %d, want Interval×Keep = %d", got, want)
	}
}

func TestSafetyNetRecoveryResumesCorrectly(t *testing.T) {
	// Run, recover to a checkpoint mid-run, and verify the system still
	// completes transactions without violations afterwards.
	cfg := smallConfig()
	s, err := NewSystem(cfg, smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(60, 4_000_000); err != nil {
		t.Fatal(err)
	}
	errorCycle := s.Now() - 5000
	if !s.Recover(errorCycle) {
		t.Fatal("recovery failed despite live checkpoints")
	}
	if _, err := s.Run(60, 8_000_000); err != nil {
		t.Fatalf("post-recovery run: %v", err)
	}
	if vs := s.Violations(); len(vs) != 0 {
		t.Fatalf("post-recovery violations: %v", vs[0])
	}
}

func TestRecoveryAcrossModelsAndProtocols(t *testing.T) {
	for _, protocol := range []Protocol{Directory, Snooping} {
		for _, model := range []Model{TSO, RMO} {
			name := protocol.String() + "/" + model.String()
			t.Run(name, func(t *testing.T) {
				cfg := smallConfig().WithProtocol(protocol).WithModel(model)
				s, err := NewSystem(cfg, OLTP())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Run(40, 8_000_000); err != nil {
					t.Fatal(err)
				}
				if !s.Recover(s.Now() - 1) {
					t.Fatal("recovery failed")
				}
				if _, err := s.Run(40, 8_000_000); err != nil {
					t.Fatalf("post-recovery: %v", err)
				}
				if vs := s.Violations(); len(vs) != 0 {
					t.Fatalf("violations after recovery: %v", vs[0])
				}
			})
		}
	}
}

func TestBaseSystemWithoutDVMCRuns(t *testing.T) {
	cfg := smallConfig()
	cfg.DVMC = Off()
	cfg.SafetyNet = false
	s, err := NewSystem(cfg, smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(100, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Informs != 0 || res.Checkpoints != 0 {
		t.Errorf("base system generated verification state: %v", res)
	}
	if w := s.RecoveryWindow(); w != 0 {
		t.Errorf("RecoveryWindow() = %d without SafetyNet, want 0", w)
	}
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
	if err := ScaledConfig().Validate(); err != nil {
		t.Errorf("ScaledConfig invalid: %v", err)
	}
}

func TestConfigWiths(t *testing.T) {
	cfg := DefaultConfig().WithNodes(4).WithModel(RMO).WithProtocol(Snooping).
		WithLinkGBps(1.0).WithSeed(9)
	if cfg.Nodes != 4 || cfg.Memory.Nodes != 4 || cfg.Model != RMO ||
		cfg.Protocol != Snooping || cfg.LinkGBps != 1.0 || cfg.Seed != 9 {
		t.Errorf("With* chain wrong: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("chained config invalid: %v", err)
	}
}

func TestProtocolString(t *testing.T) {
	if Directory.String() != "directory" || Snooping.String() != "snooping" {
		t.Error("Protocol strings wrong")
	}
}

// TestDirectorySeed3RunsPastLostWakeup pins the fix for DirHome stranding
// a block's queue behind a PutS / stale PutM: fault-free directory/TSO
// OLTP at seed 3 used to report operation-timeout at cycle 1,124,063 (a
// load on node 7 whose GetS sat in a stranded queue).
func TestDirectorySeed3RunsPastLostWakeup(t *testing.T) {
	cfg := ScaledConfig().WithProtocol(Directory).WithModel(TSO).WithSeed(3)
	sys, err := NewSystem(cfg, OLTP())
	if err != nil {
		t.Fatal(err)
	}
	sys.RunCycles(1_200_000)
	if v := sys.Violations(); len(v) != 0 {
		t.Fatalf("%d violations in a fault-free run, first: %v", len(v), v[0])
	}
}

// TestResultsAreIntervalDeltas: a second interval's Results count what
// that interval added, not the whole run. Every integer field of two
// consecutive intervals sums to ResultsSoFar, so a counter added to
// Results without a line in since() fails here.
func TestResultsAreIntervalDeltas(t *testing.T) {
	sys, err := NewSystem(smallConfig(), smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	first := sys.RunCycles(40_000)
	txnsAfterFirst := sys.Transactions()
	second := sys.RunCycles(40_000)
	total := sys.ResultsSoFar()

	if first.Transactions == 0 || second.Transactions == 0 {
		t.Fatalf("intervals too short to tell: %d and %d transactions", first.Transactions, second.Transactions)
	}
	if want := sys.Transactions() - txnsAfterFirst; second.Transactions != want {
		t.Errorf("second interval reports %d transactions, committed %d", second.Transactions, want)
	}
	a, b, sum := reflect.ValueOf(first), reflect.ValueOf(second), reflect.ValueOf(total)
	for i := 0; i < sum.NumField(); i++ {
		name := sum.Type().Field(i).Name
		switch sum.Field(i).Kind() {
		case reflect.Uint64:
			if got, want := a.Field(i).Uint()+b.Field(i).Uint(), sum.Field(i).Uint(); got != want {
				t.Errorf("%s: intervals sum to %d, whole run %d", name, got, want)
			}
		case reflect.Int:
			if got, want := a.Field(i).Int()+b.Field(i).Int(), sum.Field(i).Int(); got != want {
				t.Errorf("%s: intervals sum to %d, whole run %d", name, got, want)
			}
		}
	}
}
