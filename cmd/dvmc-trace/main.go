// Command dvmc-trace re-verifies execution traces.
//
// The simulator's online DVMC checkers run inside the machine they
// verify. dvmc-trace closes the loop from the outside: `dvmc-sim
// -trace-out` writes a run's per-processor commit/perform stream, and
// `check` runs that trace through the offline consistency oracle
// (internal/oracle/stream), which re-derives the uniprocessor-ordering
// and allowable-reordering verdicts from nothing but the trace and the
// consistency model's ordering table, judging each event as its bytes
// arrive — so it holds neither the file nor the events, and can sit on
// the end of a pipe while the simulation is still running; `info`
// summarises a trace without checking it.
//
// Examples:
//
//	dvmc-sim -nodes 4 -workload oltp -model TSO -txns 200 -trace-out trace.trc
//	dvmc-trace check trace.trc
//	dvmc-sim -nodes 4 -model RMO -trace-out - | dvmc-trace check -
//
// Exit codes: 0 clean, 1 usage or I/O error (a missing file, a trace the
// oracle refuses as a truncated window), 2 the oracle found violations or
// the input is not a decodable trace — the position of the damage goes to
// stderr — so the pair composes into shell pipelines and CI jobs, and a
// corrupt artifact can never read as "checked, clean".
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dvmc/internal/oracle"
	"dvmc/internal/oracle/stream"
	"dvmc/internal/telemetry"
	"dvmc/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// cli is main's process edges, passed in so tests can drive it.
type cli struct {
	stdin          io.Reader
	stdout, stderr io.Writer
}

// run is main with its process edges passed in; it returns the exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	c := &cli{stdin: stdin, stdout: stdout, stderr: stderr}
	if len(args) < 1 {
		c.usage()
		return 1
	}
	switch args[0] {
	case "check":
		return c.check(args[1:])
	case "info":
		return c.info(args[1:])
	case "-h", "-help", "--help", "help":
		c.usage()
		return 0
	default:
		return c.failf("unknown subcommand %q (want check or info)", args[0])
	}
}

func (c *cli) usage() {
	fmt.Fprintf(c.stderr, `usage:
  dvmc-trace check [flags] <in.trc | ->   verify a trace with the offline oracle
  dvmc-trace info [-json] <in.trc | ->    summarise a trace

'-' reads from stdin. 'check -h' lists flags. 'check' judges each event
as it is decoded, in bounded memory, so it can sit on the end of a pipe
while the simulation that writes the trace is still running:

  dvmc-sim -nodes 4 -trace-out - | dvmc-trace check -

exit codes: 0 clean, 1 usage or I/O error, 2 the oracle found
violations or the input is not a decodable trace (the record and byte
offset of the damage are printed).
`)
}

// failf reports a usage or I/O error: exit 1.
func (c *cli) failf(format string, args ...any) int {
	fmt.Fprintf(c.stderr, "dvmc-trace: "+format+"\n", args...)
	return 1
}

// traceErr reports a failure to read a trace. Bytes that were there but
// are not a trace are a failed artifact, exit 2; anything else (no such
// file, a truncated window the oracle refuses) is exit 1.
func (c *cli) traceErr(sub string, err error) int {
	code := c.failf("%s: %v", sub, err)
	var pe *trace.PosError
	if errors.As(err, &pe) || errors.Is(err, trace.ErrBadMagic) {
		code = 2
	}
	return code
}

// flags parses a subcommand's flags; ok false means return code now.
func (c *cli) flags(fs *flag.FlagSet, args []string) (code int, ok bool) {
	fs.SetOutput(c.stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return 1, false
	}
	return 0, true
}

// open resolves the single trace path argument of check and info.
func (c *cli) open(args []string) (io.ReadCloser, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("need exactly one trace path (or '-' for stdin)")
	}
	if args[0] == "-" {
		return io.NopCloser(c.stdin), nil
	}
	return os.Open(args[0])
}

// checkJSON is the machine-readable verdict of `check -json`.
type checkJSON struct {
	Meta       trace.Meta         `json:"meta"`
	Violations []oracle.Violation `json:"violations"`
	Stats      oracle.Stats       `json:"stats"`
}

func (c *cli) check(args []string) int {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	var (
		jsonOut    = fs.Bool("json", false, "emit the verdict as JSON on stdout")
		metricsOut = fs.String("metrics-out", "", "write a telemetry snapshot of the checker's gauges to this file")
	)
	if code, ok := c.flags(fs, args); !ok {
		return code
	}
	src, err := c.open(fs.Args())
	if err != nil {
		return c.failf("check: %v", err)
	}
	defer src.Close()

	// The decoder hands each event straight to the checker: nothing is
	// judged before the header verifies, nothing is printed before the
	// footer does.
	r, err := trace.NewReader(src)
	if err != nil {
		return c.traceErr("check", err)
	}
	if r.Meta().Truncated {
		return c.traceErr("check", oracle.ErrTruncatedTrace)
	}
	chk := stream.New(r.Meta(), stream.Options{})
	start := time.Now()
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return c.traceErr("check", err)
		}
		chk.Feed(ev)
	}
	rep := chk.Finish()
	if *metricsOut != "" {
		if err := writeMetrics(chk, time.Since(start), *metricsOut); err != nil {
			return c.failf("check: %v", err)
		}
	}

	verdict := 0
	if !rep.Clean() {
		verdict = 2
	}
	if *jsonOut {
		out := checkJSON{Meta: rep.Meta, Violations: rep.Violations, Stats: rep.Stats}
		if out.Violations == nil {
			out.Violations = []oracle.Violation{}
		}
		enc := json.NewEncoder(c.stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return c.failf("check: encode: %v", err)
		}
		return verdict
	}

	st := rep.Stats
	fmt.Fprintf(c.stdout, "trace:  v%d, %d nodes, %v, %s protocol, seed %d\n",
		rep.Meta.Version, rep.Meta.Nodes, rep.Meta.Model, protoName(rep.Meta.Protocol), rep.Meta.Seed)
	fmt.Fprintf(c.stdout, "events: %d (%d loads, %d stores, %d rmws, %d membars, %d recoveries)\n",
		st.Events, st.Loads, st.Stores, st.RMWs, st.Membars, st.Recoveries)
	fmt.Fprintf(c.stdout, "oracle: %d ordering pair checks, %d value checks (%d forwarded loads exempt), max window %d\n",
		st.PairChecks, st.ValueChecks, st.SkippedForwarded, st.MaxWindow)
	if st.UnperformedAtEnd > 0 {
		fmt.Fprintf(c.stdout, "note:   %d operations committed but unperformed when the trace ends\n", st.UnperformedAtEnd)
	}
	if rep.Clean() {
		fmt.Fprintln(c.stdout, "verdict: clean — the trace satisfies the recorded consistency model")
	} else {
		fmt.Fprintf(c.stdout, "verdict: %d violations\n", len(rep.Violations))
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(c.stdout, "  %v\n", v)
	}
	return verdict
}

// writeMetrics snapshots the finished checker's gauges (events fed,
// frontier depth and high-water, pending value queries) and its
// throughput, decode included, for dvmc-stat.
func writeMetrics(chk *stream.Checker, elapsed time.Duration, path string) error {
	reg := telemetry.NewRegistry()
	chk.RegisterMetrics(reg)
	if el := elapsed.Seconds(); el > 0 {
		reg.Gauge("stream_events_per_sec", "check throughput since start").
			Set(0, int64(float64(chk.EventsFed())/el))
	}
	return telemetry.WriteSnapshotFile(reg.Snapshot(0), path)
}

// infoJSON is the machine-readable summary of `info -json`.
type infoJSON struct {
	Meta     trace.Meta `json:"meta"`
	Bytes    int64      `json:"bytes"`
	Events   uint64     `json:"events"`
	Commits  uint64     `json:"commits"`
	Performs uint64     `json:"performs"`
	Recovers uint64     `json:"recovers"`
	SpanLo   uint64     `json:"span_lo"`
	SpanHi   uint64     `json:"span_hi"`
	PerNode  []uint64   `json:"per_node"`
}

func (c *cli) info(args []string) int {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the summary as JSON on stdout")
	if code, ok := c.flags(fs, args); !ok {
		return code
	}
	src, err := c.open(fs.Args())
	if err != nil {
		return c.failf("info: %v", err)
	}
	defer src.Close()
	// Incremental decode: info summarises arbitrarily large traces (and
	// live pipes) without holding events or bytes.
	r, err := trace.NewReader(src)
	if err != nil {
		return c.traceErr("info", err)
	}
	meta := r.Meta()
	// The reader vouches for every event's node being below meta.Nodes.
	sum := infoJSON{Meta: meta, PerNode: make([]uint64, meta.Nodes)}
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return c.traceErr("info", err)
		}
		switch ev.Kind {
		case trace.EvCommit:
			sum.Commits++
		case trace.EvPerform:
			sum.Performs++
		case trace.EvRecover:
			sum.Recovers++
		}
		sum.PerNode[ev.Node]++
		if sum.Events == 0 {
			sum.SpanLo = uint64(ev.Time)
		}
		sum.Events++
		sum.SpanHi = uint64(ev.Time)
	}
	sum.Bytes = r.Offset()

	if *jsonOut {
		enc := json.NewEncoder(c.stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			return c.failf("info: encode: %v", err)
		}
		return 0
	}
	fmt.Fprintf(c.stdout, "trace:  v%d, %d nodes, %v, %s protocol, seed %d\n",
		meta.Version, meta.Nodes, meta.Model, protoName(meta.Protocol), meta.Seed)
	if meta.Truncated {
		fmt.Fprintln(c.stdout, "note:   truncated flight-recorder window (oracle will refuse it)")
	}
	fmt.Fprintf(c.stdout, "size:   %d bytes, %d events (%.2f bytes/event)\n",
		sum.Bytes, sum.Events, float64(sum.Bytes)/float64(max(1, sum.Events)))
	fmt.Fprintf(c.stdout, "events: %d commits, %d performs, %d recovery markers\n", sum.Commits, sum.Performs, sum.Recovers)
	if sum.Events > 0 {
		fmt.Fprintf(c.stdout, "span:   cycles %d..%d\n", sum.SpanLo, sum.SpanHi)
	}
	for n, count := range sum.PerNode {
		fmt.Fprintf(c.stdout, "  node %d: %d events\n", n, count)
	}
	return 0
}

func protoName(p uint8) string {
	if p == 1 {
		return "snooping"
	}
	return "directory"
}
