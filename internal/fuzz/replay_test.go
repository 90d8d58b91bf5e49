package fuzz

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvmc"
	"dvmc/internal/core"
	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/oracle"
	"dvmc/internal/trace"
)

// TestCorpusCaseTraceExplainsVerdict reads each committed reproducer's
// .trc and re-derives the case's classification from the trace alone,
// through the one rule every judged run uses (dvmc.Classify): the fault
// record gives the injection ground truth (kind, node, outcome), the
// violation records the online verdict, and the oracle judges the
// recorded events. No
// case is re-run. A trace cannot tell a hang (it does not record
// whether the programs finished), and the corpus holds none.
func TestCorpusCaseTraceExplainsVerdict(t *testing.T) {
	files, err := CorpusFiles(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		c, err := LoadCase(path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(strings.TrimSuffix(path, ".json") + ".trc")
		if err != nil {
			t.Fatal(err)
		}
		meta, events, err := trace.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var faults []trace.Event
		var online []dvmc.Violation
		for _, ev := range events {
			switch ev.Kind {
			case trace.EvFault:
				faults = append(faults, ev)
			case trace.EvViolation:
				online = append(online, dvmc.Violation{Kind: core.ViolationKind(ev.Seq),
					Node: network.NodeID(ev.Node), Block: mem.BlockAddr(ev.Addr), Cycle: ev.Time})
			}
		}
		var truth *dvmc.InjectionResult
		switch {
		case c.Fault == nil && len(faults) == 0:
		case c.Fault == nil || len(faults) != 1:
			t.Fatalf("%s: %d fault records for fault %+v", path, len(faults), c.Fault)
		default:
			f := faults[0]
			if kind := dvmc.FaultKind(f.Seq).String(); kind != c.Fault.Kind || int(f.Node) != c.Fault.Node%meta.Nodes {
				t.Errorf("%s: fault record names %s on node %d, the case %s on node %d", path, kind, f.Node, c.Fault.Kind, c.Fault.Node)
			}
			truth = &dvmc.InjectionResult{Applied: f.Mask != 0, Detected: f.Mask == 1, Masked: f.Mask == 2}
		}
		if got, _ := dvmc.Classify(truth, online, oracle.Check(meta, events).Violations, true); got != c.Expect {
			t.Errorf("%s: the trace explains %s, the case expects %s", path, got, c.Expect)
		}
	}
}

// TestReplayObservedCorpus replays every committed reproducer with spans
// and telemetry on: switching the observers on must not perturb the run,
// so each case keeps its classification and re-records its .trc byte
// for byte.
func TestReplayObservedCorpus(t *testing.T) {
	files, err := CorpusFiles(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty corpus")
	}
	observe := func(cfg dvmc.Config) dvmc.Config {
		return dvmc.Outputs{Metrics: "m", Spans: "s"}.Observe(cfg)
	}
	for _, path := range files {
		rr, sys := ReplayFile(path, observe)
		if !rr.OK || sys == nil {
			t.Errorf("%s: expect %s, got %s; %s %s", path, rr.Expect, rr.Got, rr.Result.Panic, rr.TraceDiff)
		}
	}
}
