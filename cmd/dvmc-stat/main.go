// Command dvmc-stat inspects telemetry snapshots: the JSON files
// written by the -metrics-out flags of dvmc-sim, dvmc-fuzz replay,
// dvmc-trace check and dvmc-farm, or fetched live from an http(s) URL
// (dvmc-sim -http's /metrics, a dvmc-farm coordinator's /metrics.json).
// The JSON snapshot is the interchange format; every other rendering
// (Prometheus text, CSV, human-readable) is re-encoded from it, so all
// views agree by construction.
//
// Subcommands:
//
//	dump      re-encode a snapshot (text, json, prom, csv, series-csv)
//	series    print tracked time series as CSV, optionally filtered
//	top       rank metrics by value
//	timeline  render a binary span dump (-spans-out), and optionally the
//	          same run's snapshot as counter tracks, as Chrome
//	          trace-event JSON, loadable in Perfetto / chrome://tracing
//
// Exit codes (all subcommands): 0 clean, 1 usage or I/O error, 2 the
// snapshot records checker violations or the artifact is malformed —
// the same convention as dvmc-trace and dvmc-fuzz (a corrupt artifact
// is a failed verification of the artifact, not a tool usage error).
//
// Examples:
//
//	dvmc-sim -workload oltp -txns 200 -metrics-out run.json
//	dvmc-stat dump run.json
//	dvmc-stat dump -format prom run.json
//	dvmc-stat series -metric checker.met_queue_depth run.json
//	dvmc-stat top -n 10 run.json
//	dvmc-sim -spans-out run.spans -metrics-out run.json
//	dvmc-stat timeline -o run.trace.json run.spans run.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"

	"dvmc"
	"dvmc/internal/span"
	"dvmc/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// cli is main's process edges, passed in so tests can drive it. A source
// named '-' is read from the process's stdin.
type cli struct {
	stdout, stderr io.Writer
}

// run is main with its process edges passed in; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	c := &cli{stdout: stdout, stderr: stderr}
	if len(args) < 1 {
		c.usage()
		return 1
	}
	switch args[0] {
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
		return c.failf("unknown subcommand %q (want dump, series, top, or timeline)", args[0])
	}
}

func (c *cli) usage() {
	fmt.Fprintf(c.stderr, `usage:
  dvmc-stat dump     [-format text|json|prom|csv|series-csv] <snapshot>
  dvmc-stat series   [-metric NAME] <snapshot>
  dvmc-stat top      [-n N] [-kind counter|gauge] <snapshot>
  dvmc-stat timeline [-o FILE] <spans> [<snapshot>]

<snapshot> is a JSON snapshot file written by -metrics-out (dvmc-sim,
dvmc-fuzz replay, dvmc-trace check, or dvmc-farm's merged campaign
snapshot); '-' for stdin; or an http(s):// URL — dvmc-sim -http's
/metrics or a dvmc-farm coordinator's /metrics.json for a live
farm-wide view. All renderings are derived from the JSON, so text,
Prometheus, and CSV views always agree.

<spans> is a binary span dump written by -spans-out (dvmc-sim or
dvmc-fuzz replay; '-' for stdin); timeline renders it as Chrome
trace-event JSON for Perfetto / chrome://tracing. Given the same run's
snapshot too, it draws every tracked series as a counter track: the
work per sampling window for counters (ops retired, transactions
issued, link bytes, informs processed, ...), the level for gauges.

exit codes: 0 clean, 1 usage or I/O error, 2 the snapshot records
checker violations or the artifact failed to decode.
`)
}

// failf reports a usage or I/O error: exit 1 (2 is reserved for recorded
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

// load decodes the snapshot named by the single positional argument.
func (c *cli) load(fs *flag.FlagSet) (*telemetry.Snapshot, int) {
	if fs.NArg() != 1 {
		return nil, c.failf("%s: need exactly one snapshot source (file, '-' for stdin, or http(s) URL)", fs.Name())
	}
	return c.loadSnapshot(fs.Arg(0))
}

// loadSnapshot decodes a snapshot from a file path, "-" for stdin, or an
// http(s):// URL — the live /metrics endpoint of dvmc-sim -http or a
// dvmc-farm coordinator's /metrics.json, so a running farm can be
// watched with the same tool that reads recorded files. A nil snapshot
// comes with the exit code.
func (c *cli) loadSnapshot(path string) (*telemetry.Snapshot, int) {
	var r io.Reader = os.Stdin
	switch {
	case strings.HasPrefix(path, "http://") || strings.HasPrefix(path, "https://"):
		resp, err := http.Get(path)
		if err != nil {
			return nil, c.failf("%v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, c.failf("%s: %s", path, resp.Status)
		}
		r = io.LimitReader(resp.Body, maxSnapshotBody)
	case path != "-":
		f, err := os.Open(path)
		if err != nil {
			return nil, c.failf("%v", err)
		}
		defer f.Close()
		r = f
	}
	snap, err := telemetry.DecodeSnapshot(r)
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

// timeline renders a binary span dump as Chrome trace-event JSON: one
// "X" slice per span (transaction or fault flight) and one "i" instant
// per child event, ready for Perfetto or chrome://tracing. With a
// snapshot of the same run, every tracked series becomes a counter track
// beside them. Timestamps are simulated cycles, shown as µs.
func (c *cli) timeline(args []string) int {
	fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
	out := fs.String("o", "", "write the JSON here instead of stdout")
	if code, ok := c.flags(fs, args); !ok {
		return code
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		return c.failf("timeline: need exactly one span dump source (file or '-' for stdin) and at most one snapshot source")
	}
	if fs.NArg() == 2 && fs.Arg(0) == "-" && fs.Arg(1) == "-" {
		return c.failf("timeline: only one source can be '-' (stdin)")
	}
	path := fs.Arg(0)
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return c.failf("%v", err)
	}
	meta, spans, err := span.Decode(data)
	if err != nil {
		fmt.Fprintf(c.stderr, "dvmc-stat: %s: decoding span dump: %v\n", path, err)
		return 2
	}
	var snap *telemetry.Snapshot
	if fs.NArg() == 2 {
		var code int
		if snap, code = c.loadSnapshot(fs.Arg(1)); snap == nil {
			return code
		}
	}
	counters := counterTracks(snap)
	if *out == "" {
		err = span.WriteChrome(c.stdout, meta, spans, spanName, counters)
	} else {
		f, cerr := os.Create(*out)
		if cerr != nil {
			return c.failf("%v", cerr)
		}
		err = span.WriteChrome(f, meta, spans, spanName, counters)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return c.failf("timeline: %v", err)
	}
	if snap == nil {
		return 0
	}
	return c.verdict(snap)
}

// counterTracks turns a snapshot's tracked series into counter samples
// (none for a nil snapshot). A counter series shows the work done in
// each sampling window, stamped at the window's start; a gauge series
// shows its sampled level.
func counterTracks(snap *telemetry.Snapshot) []span.Counter {
	if snap == nil {
		return nil
	}
	kind := make(map[string]string, len(snap.Metrics))
	for _, m := range snap.Metrics {
		kind[m.Name] = m.Kind
	}
	var out []span.Counter
	for _, s := range snap.Series {
		key := "value"
		if s.Label != "" {
			key = s.Label + "=" + s.LabelValue
		}
		if kind[s.Name] != telemetry.KindCounter.String() {
			for i, v := range s.Values {
				out = append(out, span.Counter{Name: s.Name, Key: key, Ts: s.Cycles[i], Value: v})
			}
			continue
		}
		for i := 1; i < len(s.Values); i++ {
			out = append(out, span.Counter{Name: s.Name, Key: key, Ts: s.Cycles[i-1], Value: s.Values[i] - s.Values[i-1]})
		}
	}
	return out
}

// spanName renders span display names with the fault-kind vocabulary
// the injection campaigns use, so a flight recording reads
// "fault msg-drop", not "fault kind=1".
func spanName(s *span.Span) string {
	if s.Family == span.FamilyFault {
		return "fault " + dvmc.FaultKind(s.Kind).String()
	}
	return s.Name()
}
