// Command dvmc-lint runs the dvmc static-analysis suite (internal/analysis)
// over the module containing the working directory: maprange, detsource
// and exhaustive. It prints findings as
//
//	file:line:col: [analyzer] message
//
// (or, with -json, as a machine-readable array of
// {file,line,col,analyzer,msg} records). It exits 0 when clean and
// for -list and -h, 1 on any diagnostic, and 2 on a usage error (an
// unknown flag or -analyzers name) or when the module fails to load or
// type-check. Package patterns are accepted for familiarity
// ("go run ./cmd/dvmc-lint ./...") but the suite always analyzes the
// whole module: the determinism contract is a whole-module property.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dvmc/internal/analysis"
)

// jsonFinding is the machine-readable shape of one diagnostic, for CI
// annotation tooling and editors (-json flag).
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Msg      string `json:"msg"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvmc-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	analyzers := fs.String("analyzers", "", "comma-separated subset to run (see -list); empty = all")
	listDoc := fs.Bool("list", false, "list analyzers and exit")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array of {file,line,col,analyzer,msg}")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: dvmc-lint [flags] [packages]\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // help was requested and printed
		}
		return 2
	}

	if *listDoc {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	selected, err := analysis.ByName(*analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "dvmc-lint:", err)
		return 2
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "dvmc-lint:", err)
		return 2
	}
	mod, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintln(stderr, "dvmc-lint:", err)
		return 2
	}
	if len(mod.TypeErrors) > 0 {
		for _, e := range mod.TypeErrors {
			fmt.Fprintln(stderr, "dvmc-lint: type error:", e)
		}
		fmt.Fprintf(stderr, "dvmc-lint: %d type error(s); findings would be unreliable\n", len(mod.TypeErrors))
		return 2
	}

	diags := analysis.Run(mod, selected)
	cwd, _ := os.Getwd()
	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = rel
			}
		}
		findings = append(findings, jsonFinding{
			File: file, Line: d.Pos.Line, Col: d.Pos.Column,
			Analyzer: d.Analyzer, Msg: d.Message,
		})
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "dvmc-lint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Msg)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "dvmc-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// findModuleRoot walks upward from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
