package main

import (
	"bytes"
	"strings"
	"testing"

	"dvmc"
)

// TestExitCodes pins the tool's contract: 0 for a clean campaign and for
// -h, 1 for a bad flag, an unknown model or workload, and a campaign
// size below one (-n -1 used to panic inside the campaign).
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string
		stderr string
	}{
		{"clean campaign", []string{"-n", "2", "-budget", "20000"}, 0, "undetected: 0", ""},
		{"help", []string{"-h"}, 0, "", "usage: dvmc-errors"},
		{"bad flag", []string{"-bogus"}, 1, "", "flag provided but not defined: -bogus"},
		{"unknown model", []string{"-model", "XC"}, 1, "", "XC"},
		{"unknown protocol", []string{"-protocol", "bus"}, 1, "", "bus"},
		{"unknown workload", []string{"-workload", "nope"}, 1, "", "nope"},
		{"negative -n", []string{"-n", "-1"}, 1, "", "need at least one fault"},
		{"zero -n", []string{"-n", "0"}, 1, "", "need at least one fault"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stdout.String(), tc.stdout) || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: exit %d, want %d with stdout %q and stderr %q; got\nstdout: %s\nstderr: %s",
				tc.name, code, tc.code, tc.stdout, tc.stderr, stdout.String(), stderr.String())
		}
	}
}

// TestConfigIsTheTableRow: the flags name a Section 6.1 row, and the
// campaign runs exactly that row's system — the configuration this tool
// built from its own knobs before it asked for the row, for every row.
func TestConfigIsTheTableRow(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		for _, row := range dvmc.ErrorDetectionRows() {
			got, err := config(row.Protocol.String(), row.Model.String(), seed)
			if err != nil {
				t.Fatal(err)
			}
			if want := dvmc.ErrorDetectionConfig(row, seed); got != want {
				t.Errorf("%v/%v seed %d: config differs from ErrorDetectionConfig", row.Protocol, row.Model, seed)
			}
			old := dvmc.ScaledConfig().WithSeed(seed)
			old.Memory.CacheECC = true
			old.SNConfig.Interval = 10000
			old.SNConfig.Keep = 10
			old.Proc.MembarInjectionInterval = 5000
			if old = old.WithModel(row.Model).WithProtocol(row.Protocol); got != old {
				t.Errorf("%v/%v seed %d: config differs from the knobs the tool set itself", row.Protocol, row.Model, seed)
			}
		}
	}
}
