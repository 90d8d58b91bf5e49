package dvmc

import (
	"errors"
	"fmt"
	"io"
	"os"

	"dvmc/internal/telemetry"
)

// Outputs names where one run's observer artifacts go, as the CLIs'
// -metrics-out, -spans-out and -trace-out flags give them: a file path,
// "-" for stdout, or "" for not recorded. dvmc-sim and dvmc-fuzz replay
// both go through it, so the same flags switch on the same observers and
// write the same artifacts.
type Outputs struct {
	Metrics, Spans, Trace string
}

// Report returns where a CLI prints its human-readable report: stdout,
// unless one artifact is "-" and so is all of stdout, which moves the
// report to stderr so a pipe reads the artifact from its first byte.
func (o Outputs) Report(stdout, stderr io.Writer) (io.Writer, error) {
	dashes := 0
	for _, out := range []string{o.Metrics, o.Spans, o.Trace} {
		if out == "-" {
			dashes++
		}
	}
	switch dashes {
	case 0:
		return stdout, nil
	case 1:
		return stderr, nil
	default:
		return nil, errors.New("only one of -metrics-out, -spans-out and -trace-out can be '-' (stdout)")
	}
}

// Observe returns cfg with the observers these outputs read switched on.
func (o Outputs) Observe(cfg Config) Config {
	if o.Metrics != "" {
		cfg.Telemetry = TelemetryOn()
	}
	if o.Spans != "" {
		cfg.Spans = SpansOn()
	}
	if o.Trace != "" {
		cfg.Trace = TraceOn()
	}
	return cfg
}

// Finish ends a run for observation: it drains the checkers and, when a
// trace is asked for, seals it. Every later reader — the report, the
// snapshot, each artifact — then sees one final state, the trace
// recorder's last spill included.
func (o Outputs) Finish(sys *System) error {
	sys.DrainCheckers()
	if o.Trace == "" {
		return nil
	}
	_, err := sys.TraceBytes()
	return err
}

// Write writes each artifact asked for from the finished run sys, "-"
// to stdout, and names each on report.
func (o Outputs) Write(sys *System, stdout, report io.Writer) error {
	if o.Metrics != "" {
		snap := sys.TelemetrySnapshot()
		var err error
		if o.Metrics == "-" {
			err = snap.EncodeJSON(stdout)
		} else {
			err = telemetry.WriteSnapshotFile(snap, o.Metrics)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(report, "telemetry snapshot written to %s\n", outName(o.Metrics))
	}
	if o.Spans != "" {
		dump, err := sys.SpanBytes()
		if err != nil {
			return err
		}
		if err := writeOut(o.Spans, dump, stdout); err != nil {
			return err
		}
		st := sys.SpanStats()
		fmt.Fprintf(report, "span dump written to %s (%d spans recorded, %d evicted, %d hops)\n",
			outName(o.Spans), st.Spans, st.SpansDropped, st.Events)
	}
	if o.Trace != "" {
		data, err := sys.TraceBytes()
		if err != nil {
			return err
		}
		if err := writeOut(o.Trace, data, stdout); err != nil {
			return err
		}
		fmt.Fprintf(report, "trace written to %s (%d events, %d bytes)\n",
			outName(o.Trace), sys.TraceStats().Events, len(data))
	}
	return nil
}

// writeOut writes an artifact to the named file, or to stdout for "-".
func writeOut(path string, data []byte, stdout io.Writer) error {
	if path == "-" {
		_, err := stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// outName is how a report names an artifact's destination.
func outName(path string) string {
	if path == "-" {
		return "stdout"
	}
	return path
}
