package dvmc

import (
	"strings"
	"testing"

	"dvmc/internal/core"
	"dvmc/internal/oracle"
)

// TestClassify walks the one judgement rule branch by branch: ground
// truth (nil for a fault-free run) against the online checkers and the
// trace oracle. A finding that decides the class is named in its detail.
func TestClassify(t *testing.T) {
	online := []Violation{{Kind: core.LostOperation, Node: 1, Cycle: 40}}
	flagged := []oracle.Violation{{Node: 2, Seq: 7, Detail: "value from nowhere"}}
	applied := &InjectionResult{Applied: true}
	detected := &InjectionResult{Applied: true, Detected: true, DetectionKind: core.LostOperation, Latency: 30}
	masked := &InjectionResult{Applied: true, Masked: true}
	for _, tc := range []struct {
		name     string
		truth    *InjectionResult
		online   []Violation
		found    []oracle.Violation
		finished bool
		want     Class
		detail   string // a substring of the detail; "" checks nothing
	}{
		{"not applied", &InjectionResult{}, nil, nil, true, ClassNotApplied, ""},
		{"detected", detected, online, nil, true, ClassAgreeDetect, "lost-operation after 30 cycles"},
		{"detected, oracle also flags", detected, online, flagged, true, ClassAgreeDetect, ""},
		{"masked, both silent", masked, nil, nil, true, ClassAgreeClean, "masked"},
		{"masked, oracle flags", masked, nil, flagged, true, ClassEscape, "value from nowhere"},
		{"masked, online flags", masked, online, nil, true, ClassFalseAlarm, "lost-operation"},
		{"masked, both flag", masked, online, flagged, true, ClassEscape, "value from nowhere"},
		{"unmasked, undetected", applied, nil, nil, true, ClassEscape, "undetected"},
		{"unmasked, undetected, oracle flags", applied, nil, flagged, true, ClassEscape, "value from nowhere"},
		{"fault-free, clean", nil, nil, nil, true, ClassAgreeClean, ""},
		{"fault-free, online only", nil, online, nil, true, ClassFalseAlarm, "online: "},
		{"fault-free, oracle only", nil, nil, flagged, true, ClassFalseAlarm, "oracle: "},
		{"fault-free, unfinished", nil, nil, nil, false, ClassHang, "did not finish"},
		{"fault-free, unfinished, a finding", nil, nil, flagged, false, ClassFalseAlarm, "oracle: "},
	} {
		got, detail := Classify(tc.truth, tc.online, tc.found, tc.finished)
		if got != tc.want || !strings.Contains(detail, tc.detail) {
			t.Errorf("%s: %s (%q), want %s with a detail naming %q", tc.name, got, detail, tc.want, tc.detail)
		}
	}
}
