package fuzz

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dvmc"
)

// WriteCase persists a reproducer as <dir>/<name>.json (stable,
// indented JSON — byte-identical for equal cases). It creates the
// directory as needed and returns the written path.
func WriteCase(dir, name string, c *Case) (string, error) {
	data, err := c.Encode()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// WriteTrace persists a run's execution trace as <dir>/<name>.trc next
// to its reproducer, for offline oracle inspection with dvmc-stat check.
func WriteTrace(dir, name string, data []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".trc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadCase reads and validates one reproducer file.
func LoadCase(path string) (*Case, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := DecodeCase(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// CorpusFiles lists the reproducer files in a corpus directory in
// lexical order. A missing directory is an empty corpus, not an error.
func CorpusFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		out = append(out, filepath.Join(dir, e.Name()))
	}
	sort.Strings(out)
	return out, nil
}

// ReplayResult is one corpus file's replay outcome.
type ReplayResult struct {
	Path   string         `json:"path"`
	Expect dvmc.Class     `json:"expect"`
	Got    dvmc.Class     `json:"got"`
	Result dvmc.Judgement `json:"result"`
	// TraceDiff is set when the re-recorded execution trace is not byte
	// for byte the committed <name>.trc: the case name and the first
	// differing offset.
	TraceDiff string `json:"trace_diff,omitempty"`
	// OK: the replay reproduced the recorded classification and, where a
	// trace is committed next to the case, that trace.
	OK bool `json:"ok"`
}

// ReplayDir replays (ReplayFile) every reproducer in a corpus directory,
// one result per file in lexical order; the error is for directory-level
// failures only.
func ReplayDir(dir string) ([]ReplayResult, error) {
	files, err := CorpusFiles(dir)
	if err != nil {
		return nil, err
	}
	var out []ReplayResult
	for _, path := range files {
		rr, _ := ReplayFile(path, nil)
		out = append(out, rr)
	}
	return out, nil
}

// ReplayFile re-runs one reproducer and checks that it still shows its
// recorded classification and re-records its <name>.trc exactly — the
// simulator is deterministic, so the trace pins simulated behaviour
// across commits far tighter than the classification does (a case
// without a .trc is held to its classification only). A file that does
// not load or run is a non-OK result with the error in Result.Panic.
//
// observe (nil for none) switches observers on for this one execution,
// and the finished system is returned so the caller can read them: the
// artifacts come from the very run whose classification and trace were
// checked (the system is nil when the case did not load or crashed).
func ReplayFile(path string, observe func(dvmc.Config) dvmc.Config) (ReplayResult, *dvmc.System) {
	rr := ReplayResult{Path: path}
	c, err := LoadCase(path)
	if err != nil {
		rr.Result.Panic = err.Error()
		return rr, nil
	}
	rr.Expect = c.Expect
	res, got, sys, err := runCase(c, observe, true)
	if err != nil {
		rr.Result.Panic = err.Error()
		return rr, nil
	}
	rr.Result = res
	rr.Got = res.Class
	name := strings.TrimSuffix(path, ".json")
	if want, err := os.ReadFile(name + ".trc"); err == nil {
		rr.TraceDiff = traceDiff(filepath.Base(name), got, want)
	} else if !os.IsNotExist(err) {
		rr.TraceDiff = err.Error()
	}
	// A corpus case without a recorded expectation just has to run; one
	// with an expectation has to reproduce it.
	rr.OK = (c.Expect == "" || res.Class == c.Expect) && rr.TraceDiff == ""
	return rr, sys
}

// traceDiff describes where got departs from the committed trace want
// ("" when they are equal).
func traceDiff(name string, got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	off := 0
	for off < len(got) && off < len(want) && got[off] == want[off] {
		off++
	}
	return fmt.Sprintf("%s: re-recorded trace differs from %s.trc at offset %d (got %d bytes, committed %d)",
		name, name, off, len(got), len(want))
}
