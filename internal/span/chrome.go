package span

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace-event export: renders a span dump as the JSON object
// format Perfetto and chrome://tracing load directly. The output is
// deterministic — struct field order is fixed, and encoding/json
// marshals the args maps in sorted-key order — so exported timelines
// are byte-comparable exactly like the binary dumps they come from.

// NameFunc optionally overrides a span's display name (e.g. the CLI
// maps fault-kind numbers to their simulator names). A nil NameFunc or
// an empty result falls back to Span.Name.
type NameFunc func(*Span) string

// Counter is one sample of a counter track: from cycle Ts on, series Key
// of track Name reads Value. WriteChrome renders each as a "C" counter
// event, so a timeline can carry the telemetry series beside the spans.
type Counter struct {
	Name, Key string
	Ts        uint64
	Value     int64
}

// counterPid is the row group of counter tracks; span families start at 1.
const counterPid = 0

// chromeEvent is one trace event in Chrome's JSON format: "X" complete
// events carry dur; "i" instant events carry scope s; "C" counter events
// carry their series values in args.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent  `json:"traceEvents"`
	OtherData   map[string]any `json:"otherData,omitempty"`
}

// WriteChrome renders spans (any order; re-sorted canonically) and
// counter samples (in the order given) as Chrome trace-event JSON. Rows:
// pid groups spans by family, tid is the owning node; counters sit in
// pid 0. One "X" complete event per span; one "i" instant event per
// child event; one "C" event per counter sample.
func WriteChrome(w io.Writer, meta Meta, spans []Span, name NameFunc, counters []Counter) error {
	sorted := make([]Span, len(spans))
	copy(sorted, spans)
	sortSpans(sorted)

	out := chromeTrace{
		TraceEvents: make([]chromeEvent, 0, 2*len(sorted)+len(counters)),
		OtherData: map[string]any{
			"nodes":    meta.Nodes,
			"model":    meta.Model,
			"protocol": meta.Protocol,
			"seed":     meta.Seed,
			"clock":    "simulated cycles (ts/dur are kernel cycles, not microseconds)",
		},
	}
	for i := range sorted {
		s := &sorted[i]
		n := ""
		if name != nil {
			n = name(s)
		}
		if n == "" {
			n = s.Name()
		}
		dur := uint64(s.End - s.Start)
		if dur == 0 {
			dur = 1 // zero-width slices are invisible in Perfetto
		}
		args := map[string]any{
			"id":      s.ID,
			"outcome": s.Outcome.String(),
		}
		if s.Family == FamilyTxn {
			args["addr"] = fmt.Sprintf("0x%x", s.Addr)
		}
		if s.Dropped > 0 {
			args["events_dropped"] = s.Dropped
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: n, Ph: "X", Pid: int(s.Family), Tid: int(s.Node),
			Ts: uint64(s.Start), Dur: dur, Args: args,
		})
		for _, e := range s.Events {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: e.Label.String(), Ph: "i", Pid: int(s.Family), Tid: int(s.Node),
				Ts: uint64(e.Time), S: "t",
				Args: map[string]any{"a": e.A, "b": e.B, "span": s.ID},
			})
		}
	}
	for _, c := range counters {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: c.Name, Ph: "C", Pid: counterPid, Ts: c.Ts,
			Args: map[string]any{c.Key: c.Value},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
