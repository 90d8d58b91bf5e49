// Command dvmc-stat reads every artifact a run leaves behind: execution
// traces (-trace-out), telemetry snapshots (-metrics-out, or live from an
// http(s) URL such as a dvmc-farm coordinator's /metrics.json) and span
// dumps (-spans-out).
//
// Subcommands:
//
//	check     verify a trace with the offline oracle, one event at a time
//	          as its bytes arrive (it can sit on the end of a pipe)
//	info      summarise a trace without checking it
//	dump      re-encode a snapshot (text, json, prom, csv, series-csv)
//	series    print tracked time series as CSV, optionally filtered
//	top       rank metrics by value
//	timeline  render a run's span dump, trace and snapshot (any of them)
//	          as Chrome trace-event JSON (Perfetto)
//
// A snapshot is always JSON; every other view is re-encoded from it, so
// all views agree by construction.
//
// Exit codes (all subcommands): 0 clean, 1 usage or I/O error, 2 the
// oracle found violations, the snapshot records checker violations, or
// the artifact does not decode (a trace header with an unknown flag
// included) — with the position of the damage on stderr — so a corrupt
// artifact can never read as "checked, clean".
//
// Examples:
//
//	dvmc-sim -nodes 4 -model RMO -trace-out - | dvmc-stat check -
//	dvmc-sim -workload oltp -txns 200 -metrics-out run.json
//	dvmc-stat dump -format prom run.json
//	dvmc-stat top -n 10 run.json
//	dvmc-sim -spans-out run.spans -metrics-out run.json
//	dvmc-stat timeline -o run.trace.json run.spans run.json
//	dvmc-stat timeline internal/fuzz/testdata/corpus/detect-wb-corrupt-tso.trc
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"

	"dvmc"
	"dvmc/internal/core"
	"dvmc/internal/sim"
	"dvmc/internal/span"
	"dvmc/internal/telemetry"
	"dvmc/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// cli is main's process edges, passed in so tests can drive it. A source
// named '-' is read from stdin.
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
	case "dump":
		return c.dump(args[1:])
	case "series":
		return c.series(args[1:])
	case "top":
		return c.top(args[1:])
	case "timeline":
		return c.timeline(args[1:])
	case "-h", "-help", "--help", "help":
		c.usage()
		return 0
	default:
		return c.failf("unknown subcommand %q (want check, info, dump, series, top, or timeline)", args[0])
	}
}

func (c *cli) usage() {
	fmt.Fprintf(c.stderr, `usage:
  dvmc-stat check    [-json] [-metrics-out F] <trace>
  dvmc-stat info     [-json] <trace>
  dvmc-stat dump     [-format text|json|prom|csv|series-csv] <snapshot>
  dvmc-stat series   [-metric NAME] <snapshot>
  dvmc-stat top      [-n N] [-kind counter|gauge] <snapshot>
  dvmc-stat timeline [-o FILE] <source> [<source> [<source>]]

<trace> is written by dvmc-sim -trace-out. 'check' verifies it with the
offline oracle as it is decoded, in bounded memory, so it can sit on the
end of a pipe while the simulation that writes it is still running:

  dvmc-sim -nodes 4 -trace-out - | dvmc-stat check -

<snapshot> is the JSON written by -metrics-out (dvmc-sim, dvmc-fuzz
replay, dvmc-stat check, dvmc-farm), or an http(s):// URL of a live
/metrics.json (dvmc-sim -http, a dvmc-farm coordinator). Every view is
re-encoded from the JSON, so text, Prometheus and CSV always agree.

timeline renders one run's span dump (-spans-out), trace and snapshot,
any of them, as Chrome trace-event JSON for Perfetto: transaction
slices, the fault track (arming to verdict, with every violation,
checkpoint and recovery), and counter tracks (work per window).

Any source may be '-' for stdin. An artifact flag (check -metrics-out,
timeline -o) named '-' makes that artifact all of stdout; the report
then goes to stderr. '<sub> -h' lists each subcommand's flags.

exit codes: 0 clean, 1 usage or I/O error, 2 the oracle found
violations, the snapshot records checker violations, or the artifact
failed to decode (the record and byte offset of the damage are printed).
`)
}

// failf reports a usage or I/O error: exit 1 (2 is reserved for found
// violations and artifacts that do not decode).
func (c *cli) failf(format string, args ...any) int {
	fmt.Fprintf(c.stderr, "dvmc-stat: "+format+"\n", args...)
	return 1
}

// flags parses a subcommand's flags; ok false means return code now. A
// parse error exits 1, not 2.
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

// maxSnapshotBody bounds a snapshot read from a URL, so a server the tool
// was pointed at by mistake cannot make it allocate without limit.
const maxSnapshotBody = 64 << 20

// open is the one source opener: a file path, or "-" for stdin, and,
// when urls is set (snapshots only), an http(s):// URL — the live
// /metrics.json endpoint of dvmc-sim -http or a dvmc-farm coordinator,
// so a running farm can be watched with the same tool that reads
// recorded files. Its errors are I/O errors, exit 1.
func (c *cli) open(path string, urls bool) (io.ReadCloser, error) {
	switch {
	case path == "-":
		return io.NopCloser(c.stdin), nil
	case urls && (strings.HasPrefix(path, "http://") || strings.HasPrefix(path, "https://")):
		resp, err := http.Get(path)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("%s: %s", path, resp.Status)
		}
		return struct {
			io.Reader
			io.Closer
		}{io.LimitReader(resp.Body, maxSnapshotBody), resp.Body}, nil
	}
	return os.Open(path)
}

// load decodes the snapshot named by the single positional argument,
// from any source open accepts. A nil snapshot comes with the exit code.
func (c *cli) load(fs *flag.FlagSet) (*telemetry.Snapshot, int) {
	if fs.NArg() != 1 {
		return nil, c.failf("%s: need exactly one snapshot source (file, '-' for stdin, or http(s) URL)", fs.Name())
	}
	path := fs.Arg(0)
	src, err := c.open(path, true)
	if err != nil {
		return nil, c.failf("%v", err)
	}
	defer src.Close()
	snap, err := telemetry.DecodeSnapshot(src)
	if err != nil {
		// A snapshot that exists but does not decode is a failed artifact,
		// not a usage error: exit 2, with the source named so a farm-wide
		// sweep over many files points at the bad one.
		fmt.Fprintf(c.stderr, "dvmc-stat: %s: decoding snapshot: %v\n", path, err)
		return nil, 2
	}
	return snap, 0
}

// verdict is the exit code once the requested output is produced: 2,
// reported, if the snapshot records violations.
func (c *cli) verdict(snap *telemetry.Snapshot) int {
	if len(snap.Events) > 0 || snap.EventsDropped > 0 {
		fmt.Fprintf(c.stderr, "dvmc-stat: snapshot records %d violation event(s)\n",
			uint64(len(snap.Events))+snap.EventsDropped)
		return 2
	}
	return 0
}

func (c *cli) dump(args []string) int {
	fs := flag.NewFlagSet("dump", flag.ContinueOnError)
	format := fs.String("format", "text", "output format: text|json|prom|csv|series-csv")
	if code, ok := c.flags(fs, args); !ok {
		return code
	}
	render := map[string]func(*telemetry.Snapshot, io.Writer) error{
		"text":       (*telemetry.Snapshot).Text,
		"json":       (*telemetry.Snapshot).EncodeJSON,
		"prom":       (*telemetry.Snapshot).Prometheus,
		"csv":        (*telemetry.Snapshot).CSV,
		"series-csv": (*telemetry.Snapshot).SeriesCSV,
	}[*format]
	if render == nil {
		return c.failf("dump: unknown format %q", *format)
	}
	snap, code := c.load(fs)
	if snap == nil {
		return code
	}
	if err := render(snap, c.stdout); err != nil {
		return c.failf("dump: %v", err)
	}
	return c.verdict(snap)
}

func (c *cli) series(args []string) int {
	fs := flag.NewFlagSet("series", flag.ContinueOnError)
	metric := fs.String("metric", "", "only this metric's series (default: all tracked)")
	if code, ok := c.flags(fs, args); !ok {
		return code
	}
	snap, code := c.load(fs)
	if snap == nil {
		return code
	}
	if *metric != "" {
		filtered := snap.Series[:0:0]
		for _, s := range snap.Series {
			if s.Name == *metric {
				filtered = append(filtered, s)
			}
		}
		if len(filtered) == 0 {
			return c.failf("series: no tracked series named %q in snapshot", *metric)
		}
		snap.Series = filtered
	}
	if err := snap.SeriesCSV(c.stdout); err != nil {
		return c.failf("series: %v", err)
	}
	return c.verdict(snap)
}

func (c *cli) top(args []string) int {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	n := fs.Int("n", 10, "how many metrics to show")
	kind := fs.String("kind", "", "restrict to one kind: counter|gauge")
	if code, ok := c.flags(fs, args); !ok {
		return code
	}
	if *kind != "" && *kind != "counter" && *kind != "gauge" {
		return c.failf("top: unknown kind %q", *kind)
	}
	snap, code := c.load(fs)
	if snap == nil {
		return code
	}
	ms := make([]telemetry.MetricSnapshot, 0, len(snap.Metrics))
	for _, m := range snap.Metrics {
		if *kind == "" || m.Kind == *kind {
			ms = append(ms, m)
		}
	}
	sort.SliceStable(ms, func(i, j int) bool {
		ti, tj := ms[i].Total(), ms[j].Total()
		if ti != tj {
			return ti > tj
		}
		return ms[i].Name < ms[j].Name
	})
	if *n < len(ms) {
		ms = ms[:max(*n, 0)]
	}
	fmt.Fprintf(c.stdout, "top %d metrics @ cycle %d\n", len(ms), snap.Cycle)
	for _, m := range ms {
		fmt.Fprintf(c.stdout, "  %-36s %-8s %14d\n", m.Name, m.Kind, m.Total())
	}
	return c.verdict(snap)
}

// timeline renders what one run left behind as one Chrome trace-event
// JSON document for Perfetto: a span dump's transactions, a trace's
// fault track, and a snapshot's tracked series as counter tracks. It
// takes one to three sources, at most one of each kind, told apart by
// their leading bytes. Timestamps are simulated cycles, shown as µs.
func (c *cli) timeline(args []string) int {
	fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
	out := fs.String("o", "-", "write the JSON to this file ('-' for stdout)")
	if code, ok := c.flags(fs, args); !ok {
		return code
	}
	if fs.NArg() < 1 || fs.NArg() > 3 {
		return c.failf("timeline: need one to three sources (a span dump, a trace, a snapshot; file or '-' for stdin)")
	}
	if i := slices.Index(fs.Args(), "-"); i >= 0 && slices.Contains(fs.Args()[i+1:], "-") {
		return c.failf("timeline: only one source can be '-' (stdin)")
	}
	var (
		meta  span.Meta // a span dump and a trace of one run carry the same header
		spans []span.Span
		track []span.ChromeEvent
		snap  *telemetry.Snapshot
		seen  = map[string]bool{}
	)
	for _, path := range fs.Args() {
		src, err := c.open(path, true)
		if err != nil {
			return c.failf("%v", err)
		}
		data, err := io.ReadAll(src)
		src.Close()
		if err != nil {
			return c.failf("%v", err)
		}
		var kind string
		switch {
		case bytes.HasPrefix(data, []byte(span.Magic)):
			kind = "span dump"
			meta, spans, err = span.Decode(data)
		case bytes.HasPrefix(data, []byte(trace.Magic)):
			kind = "trace"
			meta, track, err = faultTrack(data)
		case bytes.HasPrefix(data, []byte("{")):
			kind = "snapshot"
			snap, err = telemetry.DecodeSnapshot(bytes.NewReader(data))
		default:
			kind, err = "source", errors.New("not a span dump, trace or snapshot")
		}
		if err != nil {
			fmt.Fprintf(c.stderr, "dvmc-stat: %s: decoding %s: %v\n", path, kind, err)
			return 2
		}
		if seen[kind] {
			return c.failf("timeline: %s is a second %s (at most one span dump, one trace and one snapshot)", path, kind)
		}
		seen[kind] = true
	}
	extra := append(track, counterTracks(snap)...)
	render := func(w io.Writer) error { return span.WriteChrome(w, meta, spans, extra) }
	if err := dvmc.WriteArtifact(*out, c.stdout, render); err != nil {
		return c.failf("timeline: %v", err)
	}
	if snap == nil {
		return 0
	}
	return c.verdict(snap)
}

// faultPid is the fault track's row group: after the counter tracks (0)
// and transaction spans (span.FamilyTxn).
const faultPid = 2

// faultOutcomes names a trace.EvFault record's outcome byte.
var faultOutcomes = [...]string{"not-applied", "detected", "masked", "escape"}

// faultTrack decodes a trace and draws its fault, violation, checkpoint
// and recovery records as one track on the fault's node (0 when the run
// injected none): the fault as a slice named "fault <kind>" from its
// arming to its record, with the outcome as an arg, and its firing and
// every other record as an instant.
func faultTrack(data []byte) (span.Meta, []span.ChromeEvent, error) {
	tm, events, err := trace.Decode(data)
	meta := span.Meta{Nodes: tm.Nodes, Model: uint8(tm.Model), Protocol: tm.Protocol, Seed: tm.Seed}
	if err != nil {
		return meta, nil, err
	}
	var track []span.ChromeEvent
	instant := func(name string, at sim.Cycle, args map[string]any) {
		track = append(track, span.ChromeEvent{Name: name, Ph: "i", Pid: faultPid, Ts: uint64(at), S: "t", Args: args})
	}
	node := 0
	for _, ev := range events {
		switch ev.Kind {
		case trace.EvCommit, trace.EvPerform:
		case trace.EvCheckpoint:
			instant("checkpoint", ev.Time, map[string]any{"seq": ev.Seq})
		case trace.EvRecover:
			instant("recovery", ev.Time, map[string]any{"checkpoint_cycle": uint64(ev.Val)})
		case trace.EvViolation:
			instant(core.ViolationKind(ev.Seq).String(), ev.Time,
				map[string]any{"node": ev.Node, "block": fmt.Sprintf("0x%x", uint64(ev.Addr))})
		case trace.EvFault:
			node = int(ev.Node)
			armed, end := uint64(ev.Val), uint64(ev.Time)
			track = append(track, span.ChromeEvent{
				Name: "fault " + dvmc.FaultKind(ev.Seq).String(), Ph: "X", Pid: faultPid,
				Ts: armed, Dur: max(end, armed+1) - armed, // zero-width slices are invisible
				Args: map[string]any{"outcome": faultOutcomes[ev.Mask]},
			})
			if ev.Val2 != 0 {
				instant("fired", sim.Cycle(ev.Val2), nil)
			}
		}
	}
	for i := range track {
		track[i].Tid = node
	}
	return meta, track, nil
}

// counterTracks turns a snapshot's tracked series into "C" counter
// events on row group 0 (none for a nil snapshot). A counter series
// shows the work done in each sampling window, stamped at the window's
// start; a gauge series shows its sampled level.
func counterTracks(snap *telemetry.Snapshot) []span.ChromeEvent {
	if snap == nil {
		return nil
	}
	kind := make(map[string]string, len(snap.Metrics))
	for _, m := range snap.Metrics {
		kind[m.Name] = m.Kind
	}
	var out []span.ChromeEvent
	sample := func(name, key string, ts uint64, v int64) {
		out = append(out, span.ChromeEvent{Name: name, Ph: "C", Ts: ts, Args: map[string]any{key: v}})
	}
	for _, s := range snap.Series {
		key := "value"
		if s.Label != "" {
			key = s.Label + "=" + s.LabelValue
		}
		if kind[s.Name] != telemetry.KindCounter.String() {
			for i, v := range s.Values {
				sample(s.Name, key, s.Cycles[i], v)
			}
			continue
		}
		for i := 1; i < len(s.Values); i++ {
			sample(s.Name, key, s.Cycles[i-1], s.Values[i]-s.Values[i-1])
		}
	}
	return out
}
