package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"dvmc"
	"dvmc/internal/oracle"
	"dvmc/internal/oracle/stream"
	"dvmc/internal/telemetry"
	"dvmc/internal/trace"
)

// traceErr reports a failure to read a trace. Bytes that were there but
// are not a trace (an unknown header flag included) are a failed
// artifact, exit 2; anything else (no such file) is exit 1.
func (c *cli) traceErr(sub string, err error) int {
	code := c.failf("%s: %v", sub, err)
	var pe *trace.PosError
	if errors.As(err, &pe) || errors.Is(err, trace.ErrBadMagic) {
		code = 2
	}
	return code
}

// openTrace opens the single trace source argument of check and info;
// a nil reader comes with the exit code.
func (c *cli) openTrace(fs *flag.FlagSet) (io.ReadCloser, int) {
	if fs.NArg() != 1 {
		return nil, c.failf("%s: need exactly one trace path (or '-' for stdin)", fs.Name())
	}
	src, err := c.open(fs.Arg(0), false)
	if err != nil {
		return nil, c.failf("%s: %v", fs.Name(), err)
	}
	return src, 0
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
		metricsOut = fs.String("metrics-out", "", "write a JSON telemetry snapshot of the checker's gauges to this file ('-' for stdout)")
	)
	if code, ok := c.flags(fs, args); !ok {
		return code
	}
	verdictJSON := dvmc.Artifact{Flag: "-json"}
	if *jsonOut {
		verdictJSON.Path = "-"
	}
	report, err := dvmc.ReportTo(c.stdout, c.stderr, verdictJSON, dvmc.Artifact{Flag: "-metrics-out", Path: *metricsOut})
	if err != nil {
		return c.failf("check: %v", err)
	}
	src, code := c.openTrace(fs)
	if src == nil {
		return code
	}
	defer src.Close()

	// The decoder hands each event straight to the checker: nothing is
	// judged before the header verifies, nothing is printed before the
	// footer does.
	r, err := trace.NewReader(src)
	if err != nil {
		return c.traceErr("check", err)
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
		snap := checkerSnapshot(chk, time.Since(start))
		if err := dvmc.WriteArtifact(*metricsOut, c.stdout, snap.EncodeJSON); err != nil {
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
		if err := encodeIndented(c.stdout, out); err != nil {
			return c.failf("check: encode: %v", err)
		}
		return verdict
	}

	st := rep.Stats
	fmt.Fprintf(report, "trace:  v%d, %d nodes, %v, %s protocol, seed %d\n",
		rep.Meta.Version, rep.Meta.Nodes, rep.Meta.Model, protoName(rep.Meta.Protocol), rep.Meta.Seed)
	fmt.Fprintf(report, "events: %d (%d loads, %d stores, %d rmws, %d membars, %d recoveries)\n",
		st.Events, st.Loads, st.Stores, st.RMWs, st.Membars, st.Recoveries)
	fmt.Fprintf(report, "oracle: %d ordering pair checks, %d value checks (%d forwarded loads exempt), max window %d\n",
		st.PairChecks, st.ValueChecks, st.SkippedForwarded, st.MaxWindow)
	if st.UnperformedAtEnd > 0 {
		fmt.Fprintf(report, "note:   %d operations committed but unperformed when the trace ends\n", st.UnperformedAtEnd)
	}
	if rep.Clean() {
		fmt.Fprintln(report, "verdict: clean — the trace satisfies the recorded consistency model")
	} else {
		fmt.Fprintf(report, "verdict: %d violations\n", len(rep.Violations))
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(report, "  %v\n", v)
	}
	return verdict
}

// checkerSnapshot snapshots the finished checker's gauges (events fed,
// frontier depth and high-water, pending value queries), read from its
// accessors, and its throughput, decode included.
func checkerSnapshot(chk *stream.Checker, elapsed time.Duration) *telemetry.Snapshot {
	scalar := func(name, help string, kind telemetry.Kind, v int64) telemetry.Metric {
		return telemetry.Metric{Name: name, Help: help, Kind: kind, Read: func(int) int64 { return v }}
	}
	ms := []telemetry.Metric{
		scalar("stream_events_total", "events fed to the streaming oracle", telemetry.KindCounter, int64(chk.EventsFed())),
		scalar("stream_frontier_depth", "committed-but-unperformed operations retained", telemetry.KindGauge, chk.FrontierDepth()),
		scalar("stream_frontier_max", "high-water frontier depth (bounded-memory gauge)", telemetry.KindGauge, chk.MaxFrontier()),
		scalar("stream_pending_value_queries", "deferred R3 value queries awaiting a writer", telemetry.KindGauge, chk.PendingValueQueries()),
	}
	if el := elapsed.Seconds(); el > 0 {
		ms = append(ms, scalar("stream_events_per_sec", "check throughput since start", telemetry.KindGauge, int64(float64(chk.EventsFed())/el)))
	}
	return telemetry.TakeSnapshot(0, ms, nil)
}

// infoJSON is the machine-readable summary of `info -json`.
type infoJSON struct {
	Meta        trace.Meta `json:"meta"`
	Bytes       int64      `json:"bytes"`
	Events      uint64     `json:"events"`
	Commits     uint64     `json:"commits"`
	Performs    uint64     `json:"performs"`
	Recovers    uint64     `json:"recovers"`
	Checkpoints uint64     `json:"checkpoints"`
	Violations  uint64     `json:"violations"`
	Faults      uint64     `json:"faults"`
	SpanLo      uint64     `json:"span_lo"`
	SpanHi      uint64     `json:"span_hi"`
	PerNode     []uint64   `json:"per_node"`
}

func (c *cli) info(args []string) int {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the summary as JSON on stdout")
	if code, ok := c.flags(fs, args); !ok {
		return code
	}
	src, code := c.openTrace(fs)
	if src == nil {
		return code
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
		case trace.EvCheckpoint:
			sum.Checkpoints++
		case trace.EvViolation:
			sum.Violations++
		case trace.EvFault:
			sum.Faults++
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
		if err := encodeIndented(c.stdout, sum); err != nil {
			return c.failf("info: encode: %v", err)
		}
		return 0
	}
	fmt.Fprintf(c.stdout, "trace:  v%d, %d nodes, %v, %s protocol, seed %d\n",
		meta.Version, meta.Nodes, meta.Model, protoName(meta.Protocol), meta.Seed)
	fmt.Fprintf(c.stdout, "size:   %d bytes, %d events (%.2f bytes/event)\n",
		sum.Bytes, sum.Events, float64(sum.Bytes)/float64(max(1, sum.Events)))
	fmt.Fprintf(c.stdout, "events: %d commits, %d performs, %d recovery markers, %d checkpoints, %d violations, %d faults\n",
		sum.Commits, sum.Performs, sum.Recovers, sum.Checkpoints, sum.Violations, sum.Faults)
	if sum.Events > 0 {
		fmt.Fprintf(c.stdout, "span:   cycles %d..%d\n", sum.SpanLo, sum.SpanHi)
	}
	for n, count := range sum.PerNode {
		fmt.Fprintf(c.stdout, "  node %d: %d events\n", n, count)
	}
	return 0
}

// encodeIndented writes v as indented JSON.
func encodeIndented(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func protoName(p uint8) string {
	if p == 1 {
		return "snooping"
	}
	return "directory"
}
