package dvmc

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// Outputs names where one run's observer artifacts go, as the CLIs'
// -metrics-out, -spans-out and -trace-out flags give them: a file path,
// "-" for stdout, or "" for not recorded. dvmc-sim and dvmc-fuzz replay
// both go through it, so the same flags switch on the same observers and
// write the same artifacts.
type Outputs struct {
	Metrics, Spans, Trace string
}

// Artifact is one artifact flag of a CLI, by its name, and where its
// value sends the artifact: a file path, "-" for all of stdout, or "" for
// not written. A -json flag that prints the report as JSON is an artifact
// on "-" when set: the JSON is then all of stdout.
type Artifact struct {
	Flag, Path string
}

// ReportTo returns where a CLI prints its human-readable report, given
// every artifact its flags name: stdout, unless one artifact is "-" and
// so is all of stdout, which moves the report to stderr so a pipe reads
// the artifact from its first byte. Two artifacts on "-" are an error
// naming the flags.
func ReportTo(stdout, stderr io.Writer, arts ...Artifact) (io.Writer, error) {
	dashes := 0
	flags := make([]string, len(arts))
	for i, a := range arts {
		if a.Path == "-" {
			dashes++
		}
		flags[i] = a.Flag
	}
	switch dashes {
	case 0:
		return stdout, nil
	case 1:
		return stderr, nil
	}
	last := len(flags) - 1
	return nil, fmt.Errorf("only one of %s and %s can be '-' (stdout)", strings.Join(flags[:last], ", "), flags[last])
}

// WriteArtifact is the one writer behind every artifact flag: it renders
// the artifact into path, a file it creates or truncates, or onto stdout
// for "-".
func WriteArtifact(path string, stdout io.Writer, render func(io.Writer) error) error {
	if path == "-" {
		return render(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = render(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Report returns where a CLI prints its report: ReportTo over the three
// observer artifacts.
func (o Outputs) Report(stdout, stderr io.Writer) (io.Writer, error) {
	return ReportTo(stdout, stderr,
		Artifact{"-metrics-out", o.Metrics}, Artifact{"-spans-out", o.Spans}, Artifact{"-trace-out", o.Trace})
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

// Finish ends a run for observation: when a trace is asked for, it seals
// it. Every later reader — the report, the snapshot, each artifact — then
// sees one final state, the trace recorder's last spill included.
func (o Outputs) Finish(sys *System) error {
	if o.Trace == "" {
		return nil
	}
	_, err := sys.TraceBytes()
	return err
}

// Write writes each artifact asked for from the finished run sys, "-"
// to stdout, and names each on report. The snapshot is JSON whatever the
// file is called; dvmc-stat dump -format renders it.
func (o Outputs) Write(sys *System, stdout, report io.Writer) error {
	if o.Metrics != "" {
		if err := WriteArtifact(o.Metrics, stdout, sys.TelemetrySnapshot().EncodeJSON); err != nil {
			return err
		}
		fmt.Fprintf(report, "telemetry snapshot written to %s\n", outName(o.Metrics))
	}
	if o.Spans != "" {
		dump, err := sys.SpanBytes()
		if err != nil {
			return err
		}
		if err := WriteArtifact(o.Spans, stdout, raw(dump)); err != nil {
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
		if err := WriteArtifact(o.Trace, stdout, raw(data)); err != nil {
			return err
		}
		fmt.Fprintf(report, "trace written to %s (%d events, %d bytes)\n",
			outName(o.Trace), sys.TraceStats().Events, len(data))
	}
	return nil
}

// raw renders an artifact that is already bytes.
func raw(data []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}
}

// outName is how a report names an artifact's destination.
func outName(path string) string {
	if path == "-" {
		return "stdout"
	}
	return path
}
