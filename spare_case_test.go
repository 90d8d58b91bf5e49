package dvmc_test

import (
	"bytes"
	"reflect"
	"testing"

	"dvmc"
	"dvmc/internal/fuzz"
)

// caseRun is what a fuzz case leaves that a spare must not change:
// RunCase's result and trace bytes, and RunCaseStreamed's result and
// telemetry snapshot.
type caseRun struct {
	res, streamed dvmc.Judgement
	trace, snap   []byte
}

// runOnOneSpare runs before, unless nil, and then cs in turn through
// RunCase on one new spare, and again, before first, through
// RunCaseStreamed with metrics on another, and returns what the last case
// left.
func runOnOneSpare(t *testing.T, before func(), cs ...*fuzz.Case) (r caseRun) {
	t.Helper()
	if before == nil {
		before = func() {}
	}
	dvmc.OnOneSpare(func() {
		before()
		for _, c := range cs {
			res, trace, err := fuzz.RunCase(c)
			if err != nil {
				t.Fatal(err)
			}
			r.res, r.trace = res, trace
		}
	})
	dvmc.OnOneSpare(func() {
		before()
		for _, c := range cs {
			res, snap, err := fuzz.RunCaseStreamed(c, true)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := snap.EncodeJSON(&buf); err != nil {
				t.Fatal(err)
			}
			r.streamed, r.snap = res, buf.Bytes()
		}
	})
	return r
}

// TestSpareCaseEqualsFresh runs fuzz cases, fault-free and faulted, once
// fresh, once on a spare that has just run a case of the other protocol
// and another model, and once on a spare that has just run an 8-node
// directory Section 6.1 injection into OLTP — whose micro-ops hold that
// generator's snapshot buffers and whose MSHRs have grown waiter slices —
// and requires the same results, trace bytes and snapshot. It is
// TestSpareRunEqualsFresh for the fuzz executor, in the external package
// because internal/fuzz imports this one.
func TestSpareCaseEqualsFresh(t *testing.T) {
	cfg := fuzz.CampaignConfig{Seed: 1, Runs: 24, FaultFrac: 0.5}
	if testing.Short() {
		cfg.Runs = 8
	}
	for i := 0; i < cfg.Runs; i++ {
		c := fuzz.CaseAt(cfg, i)
		fresh := runOnOneSpare(t, nil, c)
		for _, spare := range []struct {
			after  string
			spared caseRun
		}{
			{"a case", runOnOneSpare(t, nil, otherCase(cfg, c, i), c)},
			{"an OLTP injection", runOnOneSpare(t, func() { injectOLTP(t) }, c)},
		} {
			spared := spare.spared
			if fresh.res != spared.res || fresh.streamed != spared.streamed {
				t.Errorf("case %d after %s: results differ on a spare:\nfresh %+v, %+v\nspare %+v, %+v", i, spare.after, fresh.res, fresh.streamed, spared.res, spared.streamed)
			}
			if !bytes.Equal(fresh.trace, spared.trace) {
				t.Errorf("case %d after %s: traces differ on a spare (%d and %d bytes)", i, spare.after, len(fresh.trace), len(spared.trace))
			}
			if !bytes.Equal(fresh.snap, spared.snap) {
				t.Errorf("case %d after %s: snapshots differ on a spare:\nfresh %s\nspare %s", i, spare.after, fresh.snap, spared.snap)
			}
		}
	}
}

// injectOLTP runs the first injection of the 8-node directory/TSO
// Section 6.1 row, which retires its system into the spare.
func injectOLTP(t *testing.T) {
	t.Helper()
	cfg := dvmc.ErrorDetectionConfig(dvmc.ErrorDetectionRow{Protocol: dvmc.Directory, Model: dvmc.TSO}, 4)
	if _, err := dvmc.RunInjection(cfg, dvmc.OLTP(), dvmc.DeriveCampaignInjections(cfg, 1)[0], 60_000); err != nil {
		t.Fatal(err)
	}
}

// otherCase is the first case after index i of cfg's campaign, cyclically,
// whose protocol and model both differ from c's.
func otherCase(cfg fuzz.CampaignConfig, c *fuzz.Case, i int) *fuzz.Case {
	for j := i + 1; ; j++ {
		if o := fuzz.CaseAt(cfg, j%cfg.Runs); o.Protocol != c.Protocol && o.Model != c.Model {
			return o
		}
	}
}

// TestSpareCaseHandOffAcrossWorkers runs a campaign twice at two workers,
// so the spares its cases retire pass through the root's pool to cases on
// other goroutines (the race detector's case, as on a farm worker), and
// requires the records and merged snapshot of one worker each time.
func TestSpareCaseHandOffAcrossWorkers(t *testing.T) {
	cfg := fuzz.CampaignConfig{Seed: 1, Runs: 40, FaultFrac: 0.5, Workers: 1, Metrics: true}
	serial, _, snap, err := fuzz.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := snap.EncodeJSON(&want); err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 2
	for pass := 0; pass < 2; pass++ {
		got, _, snap, err := fuzz.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := snap.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, serial) || !bytes.Equal(buf.Bytes(), want.Bytes()) {
			t.Errorf("pass %d: the campaign's records or snapshot differ at two workers", pass)
		}
	}
}
