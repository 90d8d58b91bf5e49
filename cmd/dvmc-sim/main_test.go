package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets tests re-exec this binary as dvmc-sim itself: with the
// dispatch variable set, the process runs main() on its argv instead of
// the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("DVMC_SIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runSim(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DVMC_SIM_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("dvmc-sim %v: %v\n%s", args, err, stderr.String())
	}
	return stdout.String()
}

// TestStdoutIsDeterministic: the report is a pure function of flags and
// seed. The per-class bandwidth lines used to print in map order.
func TestStdoutIsDeterministic(t *testing.T) {
	args := []string{"-workload", "oltp", "-model", "TSO", "-txns", "40"}
	first := runSim(t, args...)
	if n := strings.Count(first, "B/cycle on hottest link"); n < 3 {
		t.Fatalf("expected at least 3 per-class bandwidth lines, got %d:\n%s", n, first)
	}
	for i := 0; i < 4; i++ {
		if again := runSim(t, args...); again != first {
			t.Fatalf("run %d printed a different report:\n--- first\n%s--- again\n%s", i+2, first, again)
		}
	}
	order := []string{"coherence", "inform", "safetynet", "replay"}
	at := -1
	for _, cl := range order {
		i := strings.Index(first, "  "+cl)
		if i < 0 {
			continue
		}
		if i < at {
			t.Errorf("class %s printed out of order:\n%s", cl, first)
		}
		at = i
	}
}
