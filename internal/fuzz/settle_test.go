package fuzz

import (
	"dvmc"
	"path/filepath"
	"slices"
	"testing"

	"dvmc/internal/trace"
)

// TestSettledRunJudgesEveryInform: a fault-free run ends settled, so every
// Inform-Epoch a CET sent has been judged by its MET. Seed-7 case 1266
// (directory/PSO) is the one whose last inform was still on the torus
// when the MET queues had emptied: a settle that waited for the queues
// alone ended it with 98 informs sent and 97 judged.
func TestSettledRunJudgesEveryInform(t *testing.T) {
	c := CaseAt(CampaignConfig{Seed: 7, Runs: 3800, FaultFrac: 0}, 1266)
	if c.Fault != nil || c.Protocol != "directory" || c.Model != "PSO" {
		t.Fatalf("run 1266 derives %s/%s fault %+v, want fault-free directory/PSO", c.Protocol, c.Model, c.Fault)
	}
	res, _, sys, err := runCase(c, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != dvmc.ClassAgreeClean {
		t.Fatalf("%s (%s), want agree-clean", res.Class, res.Detail)
	}
	r := sys.ResultsSoFar()
	sent, judged := r.Informs, r.InformsProcessed
	if sent == 0 || judged != sent {
		t.Errorf("%d Inform-Epochs sent, %d judged; want every one judged", sent, judged)
	}
}

// TestNestedRecoveryCorpusRollsBackTwice: the committed nested-recovery
// reproducer issues both rollbacks, the fault's first at cycle 421 and
// the second at its recoverAgainAt deadline, and stays agree-clean with
// its committed trace. A run that ended on a fixed grace after the
// programs finished stopped at cycle 3,456, before the second rollback.
func TestNestedRecoveryCorpusRollsBackTwice(t *testing.T) {
	rr, sys := ReplayFile(filepath.Join("testdata", "corpus", "masked-nested-recovery-tolerated.json"), nil)
	if !rr.OK || rr.Got != dvmc.ClassAgreeClean {
		t.Fatalf("replay: expect %s, got %s; %s %s", rr.Expect, rr.Got, rr.Result.Panic, rr.TraceDiff)
	}
	data, err := sys.TraceBytes()
	if err != nil {
		t.Fatal(err)
	}
	_, events, err := trace.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	var recovered []uint64
	for _, ev := range events {
		if ev.Kind == trace.EvRecover {
			recovered = append(recovered, uint64(ev.Time))
		}
	}
	if want := []uint64{421, 4047}; !slices.Equal(recovered, want) {
		t.Errorf("rollbacks at %v, want %v", recovered, want)
	}
}

// TestNestedRecoveryRollsBackTwice: every applied nested-recovery case of
// a seed-7 campaign issues both rollbacks. The observation window stays
// open past a settled system while the second rollback is pending.
func TestNestedRecoveryRollsBackTwice(t *testing.T) {
	cfg := CampaignConfig{Seed: 7, Runs: 200, FaultFrac: 1, Kinds: []string{"nested-recovery"}}
	applied := 0
	for i := 0; i < cfg.Runs; i++ {
		res, _, sys, err := runCase(CaseAt(cfg, i), nil, false)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Applied {
			continue
		}
		applied++
		if got := sys.ResultsSoFar().Recoveries; got != 2 || res.Class != dvmc.ClassAgreeClean {
			t.Errorf("run %d: %s after %d rollbacks, want agree-clean after 2", i, res.Class, got)
		}
	}
	if applied == 0 {
		t.Fatal("no case applied the fault")
	}
}
