package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Host records the facts a result depends on besides the code: compare
// refuses two results whose worker count, seed or sizes differ, and a
// reader needs the rest to judge whether two hosts are comparable.
type Host struct {
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	CPUModel  string `json:"cpu_model"`
	GitCommit string `json:"git_commit"`
}

func hostFacts() Host {
	return Host{
		NProc:     runtime.NumCPU(),
		GoVersion: runtime.Version(),
		CPUModel:  cpuModel(),
		GitCommit: gitCommit(),
	}
}

// workers is W: the closed-loop client count of the parallel workloads.
func workers() int { return min(runtime.NumCPU(), 2) }

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is best effort: a checkout that is not itself a repository
// (an exported tree) reports "unknown" rather than an enclosing one's.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
