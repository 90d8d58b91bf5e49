// Command dvmc-stat inspects telemetry snapshots: the JSON files
// written by the -metrics-out flags of dvmc-sim, dvmc-fuzz and
// dvmc-farm, or fetched live from an http(s) URL (dvmc-sim -http's
// /metrics, a dvmc-farm coordinator's /metrics.json). The JSON snapshot
// is the interchange format; every other rendering (Prometheus text,
// CSV, human-readable) is re-encoded from it, so all views agree by
// construction.
//
// Subcommands:
//
//	dump      re-encode a snapshot (text, json, prom, csv, series-csv)
//	series    print tracked time series as CSV, optionally filtered
//	top       rank metrics by value
//	timeline  render a binary span dump (-spans-out) as Chrome
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
package main

import (
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

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "dump":
		dump(os.Args[2:])
	case "series":
		series(os.Args[2:])
	case "top":
		top(os.Args[2:])
	case "timeline":
		timeline(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fatalf("unknown subcommand %q (want dump, series, top, or timeline)", os.Args[1])
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  dvmc-stat dump     [-format text|json|prom|csv|series-csv] <snapshot>
  dvmc-stat series   [-metric NAME] <snapshot>
  dvmc-stat top      [-n N] [-kind counter|gauge] <snapshot>
  dvmc-stat timeline [-o FILE] <spans>

<snapshot> is a JSON snapshot file written by the -metrics-out flags of
dvmc-sim, dvmc-fuzz, or dvmc-farm; '-' for stdin; or an
http(s):// URL — dvmc-sim -http's /metrics or a dvmc-farm coordinator's
/metrics.json for a live farm-wide view. All renderings are derived
from the JSON, so text, Prometheus, and CSV views always agree.

<spans> is a binary span dump written by the -spans-out flags of
dvmc-sim, dvmc-fuzz, or dvmc-farm ('-' for stdin); timeline renders it
as Chrome trace-event JSON for Perfetto / chrome://tracing.

exit codes: 0 clean, 1 usage or I/O error, 2 the snapshot records
checker violations or the artifact failed to decode.
`)
	os.Exit(1)
}

// newFlagSet builds a flag set that exits 1 (usage), not 2, on parse
// errors — exit 2 is reserved for snapshots with recorded violations.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	return fs
}

func parseFlags(fs *flag.FlagSet, args []string) {
	if err := fs.Parse(args); err != nil {
		os.Exit(1)
	}
}

// maxSnapshotBody bounds a snapshot read from a URL, so a server the tool
// was pointed at by mistake cannot make it allocate without limit.
const maxSnapshotBody = 64 << 20

// load decodes the snapshot named by the single positional argument:
// a file path, "-" for stdin, or an http(s):// URL — the live /metrics
// endpoint of dvmc-sim -http or a dvmc-farm coordinator's
// /metrics.json, so a running farm can be watched with the same tool
// that reads recorded files.
func load(fs *flag.FlagSet) *telemetry.Snapshot {
	if fs.NArg() != 1 {
		fatalf("%s: need exactly one snapshot source (file, '-' for stdin, or http(s) URL)", fs.Name())
	}
	path := fs.Arg(0)
	var r io.Reader = os.Stdin
	switch {
	case strings.HasPrefix(path, "http://") || strings.HasPrefix(path, "https://"):
		resp, err := http.Get(path)
		if err != nil {
			fatalf("%v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fatalf("%s: %s", path, resp.Status)
		}
		r = io.LimitReader(resp.Body, maxSnapshotBody)
	case path != "-":
		f, err := os.Open(path)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		r = f
	}
	snap, err := telemetry.DecodeSnapshot(r)
	if err != nil {
		// A snapshot that exists but does not decode is a failed artifact,
		// not a usage error: exit 2, with the source named so a farm-wide
		// sweep over many files points at the bad one.
		fmt.Fprintf(os.Stderr, "dvmc-stat: %s: decoding snapshot: %v\n", path, err)
		os.Exit(2)
	}
	return snap
}

// exitOn reports recorded violations with exit code 2 (after the
// requested output was produced).
func exitOn(snap *telemetry.Snapshot) {
	if len(snap.Events) > 0 || snap.EventsDropped > 0 {
		fmt.Fprintf(os.Stderr, "dvmc-stat: snapshot records %d violation event(s)\n",
			uint64(len(snap.Events))+snap.EventsDropped)
		os.Exit(2)
	}
}

func dump(args []string) {
	fs := newFlagSet("dump")
	format := fs.String("format", "text", "output format: text|json|prom|csv|series-csv")
	parseFlags(fs, args)
	snap := load(fs)
	var err error
	switch *format {
	case "text":
		err = snap.Text(os.Stdout)
	case "json":
		err = snap.EncodeJSON(os.Stdout)
	case "prom":
		err = snap.Prometheus(os.Stdout)
	case "csv":
		err = snap.CSV(os.Stdout)
	case "series-csv":
		err = snap.SeriesCSV(os.Stdout)
	default:
		fatalf("dump: unknown format %q", *format)
	}
	if err != nil {
		fatalf("dump: %v", err)
	}
	exitOn(snap)
}

func series(args []string) {
	fs := newFlagSet("series")
	metric := fs.String("metric", "", "only this metric's series (default: all tracked)")
	parseFlags(fs, args)
	snap := load(fs)
	if *metric != "" {
		filtered := snap.Series[:0:0]
		for _, s := range snap.Series {
			if s.Name == *metric {
				filtered = append(filtered, s)
			}
		}
		if len(filtered) == 0 {
			fatalf("series: no tracked series named %q in snapshot", *metric)
		}
		snap.Series = filtered
	}
	if err := snap.SeriesCSV(os.Stdout); err != nil {
		fatalf("series: %v", err)
	}
	exitOn(snap)
}

func top(args []string) {
	fs := newFlagSet("top")
	n := fs.Int("n", 10, "how many metrics to show")
	kind := fs.String("kind", "", "restrict to one kind: counter|gauge")
	parseFlags(fs, args)
	if *kind != "" && *kind != "counter" && *kind != "gauge" {
		fatalf("top: unknown kind %q", *kind)
	}
	snap := load(fs)
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
		ms = ms[:*n]
	}
	fmt.Printf("top %d metrics @ cycle %d\n", len(ms), snap.Cycle)
	for _, m := range ms {
		fmt.Printf("  %-36s %-8s %14d\n", m.Name, m.Kind, m.Total())
	}
	exitOn(snap)
}

// timeline renders a binary span dump as Chrome trace-event JSON: one
// "X" slice per span (transaction, fault flight, or phase sample) and
// one "i" instant per child event, ready for Perfetto or
// chrome://tracing. Timestamps are simulated cycles, shown as µs.
func timeline(args []string) {
	fs := newFlagSet("timeline")
	out := fs.String("o", "", "write the JSON here instead of stdout")
	parseFlags(fs, args)
	if fs.NArg() != 1 {
		fatalf("timeline: need exactly one span dump source (file or '-' for stdin)")
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
		fatalf("%v", err)
	}
	meta, spans, err := span.Decode(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvmc-stat: %s: decoding span dump: %v\n", path, err)
		os.Exit(2)
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		w = f
	}
	if err := span.WriteChrome(w, meta, spans, spanName); err != nil {
		fatalf("timeline: %v", err)
	}
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

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dvmc-stat: "+format+"\n", args...)
	os.Exit(1)
}
