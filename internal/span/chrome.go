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

// ChromeEvent is one trace event in Chrome's JSON format: "X" complete
// events carry Dur; "i" instant events carry scope S; "C" counter events
// carry their series values in Args. WriteChrome renders each span as
// these; a caller adds the rest of a timeline (counter tracks, the fault
// track) as its own.
type ChromeEvent struct {
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
	TraceEvents []ChromeEvent  `json:"traceEvents"`
	OtherData   map[string]any `json:"otherData,omitempty"`
}

// WriteChrome renders spans (any order; re-sorted canonically) and then
// extra (in the order given) as Chrome trace-event JSON. A span's row is
// pid its family, tid its owning node: one "X" complete event per span
// and one "i" instant event per child event.
func WriteChrome(w io.Writer, meta Meta, spans []Span, extra []ChromeEvent) error {
	sorted := make([]Span, len(spans))
	copy(sorted, spans)
	sortSpans(sorted)

	out := chromeTrace{
		TraceEvents: make([]ChromeEvent, 0, 2*len(sorted)+len(extra)),
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
		dur := uint64(s.End - s.Start)
		if dur == 0 {
			dur = 1 // zero-width slices are invisible in Perfetto
		}
		args := map[string]any{
			"id":      s.ID,
			"outcome": s.Outcome.String(),
			"addr":    fmt.Sprintf("0x%x", s.Addr),
		}
		if s.Dropped > 0 {
			args["events_dropped"] = s.Dropped
		}
		out.TraceEvents = append(out.TraceEvents, ChromeEvent{
			Name: s.Name(), Ph: "X", Pid: int(s.Family), Tid: int(s.Node),
			Ts: uint64(s.Start), Dur: dur, Args: args,
		})
		for _, e := range s.Events {
			out.TraceEvents = append(out.TraceEvents, ChromeEvent{
				Name: e.Label.String(), Ph: "i", Pid: int(s.Family), Tid: int(s.Node),
				Ts: uint64(e.Time), S: "t",
				Args: map[string]any{"a": e.A, "b": e.B, "span": s.ID},
			})
		}
	}
	out.TraceEvents = append(out.TraceEvents, extra...)
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
