package dvmc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"dvmc/internal/span"
)

// spanTestConfig is a small, fast geometry with span recording on.
func spanTestConfig(p Protocol, seed uint64) Config {
	return ScaledConfig().WithNodes(4).WithProtocol(p).WithSeed(seed).WithSpans(SpansOn())
}

// runSpanDump builds a fresh system, runs it, and returns the binary
// span dump.
func runSpanDump(t *testing.T, cfg Config, cycles uint64) []byte {
	t.Helper()
	s, err := NewSystem(cfg, Uniform(128, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	s.RunCycles(cycles)
	dump, err := s.SpanBytes()
	if err != nil {
		t.Fatal(err)
	}
	return dump
}

// TestSpanDumpDeterministic pins the doctrine the whole observability
// layer rests on: a span dump is a pure function of (Config, Workload,
// Seed). Two independently built systems must produce byte-identical
// dumps for every seed × protocol combination, and the dump must decode
// and re-encode to the same bytes.
func TestSpanDumpDeterministic(t *testing.T) {
	for _, p := range []Protocol{Directory, Snooping} {
		for _, seed := range []uint64{1, 7, 42} {
			t.Run(fmt.Sprintf("%v/seed%d", p, seed), func(t *testing.T) {
				cfg := spanTestConfig(p, seed)
				a := runSpanDump(t, cfg, 20000)
				b := runSpanDump(t, cfg, 20000)
				if !bytes.Equal(a, b) {
					t.Fatalf("span dumps differ across identical runs (%d vs %d bytes)", len(a), len(b))
				}
				meta, spans, err := span.Decode(a)
				if err != nil {
					t.Fatal(err)
				}
				if meta != cfg.SpanMeta() {
					t.Fatalf("decoded meta %+v != %+v", meta, cfg.SpanMeta())
				}
				if len(spans) == 0 {
					t.Fatal("no spans recorded in 20k cycles")
				}
				var txn, phase int
				for i := range spans {
					switch spans[i].Family {
					case span.FamilyTxn:
						txn++
					case span.FamilyPhase:
						phase++
					}
				}
				if txn == 0 || phase == 0 {
					t.Fatalf("want both txn and phase spans, got txn=%d phase=%d", txn, phase)
				}
				re, err := span.Encode(meta, spans)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, re) {
					t.Fatal("decode→encode is not byte-identical")
				}
			})
		}
	}
}

// TestSpanHopsAttach checks the network observer actually lands
// protocol hops inside transaction spans (a system-level guard: if the
// (node, addr) keying drifted from the MSHR keying, every hop would be
// an orphan and the timeline would show bare spans).
func TestSpanHopsAttach(t *testing.T) {
	for _, p := range []Protocol{Directory, Snooping} {
		t.Run(p.String(), func(t *testing.T) {
			cfg := spanTestConfig(p, 3)
			s, err := NewSystem(cfg, Uniform(128, 0.7))
			if err != nil {
				t.Fatal(err)
			}
			s.RunCycles(20000)
			spans, err := s.Spans()
			if err != nil {
				t.Fatal(err)
			}
			var withHops int
			for i := range spans {
				if spans[i].Family == span.FamilyTxn && len(spans[i].Events) > 0 {
					withHops++
				}
			}
			if withHops == 0 {
				t.Fatal("no transaction span carries any protocol hop")
			}
			st := s.SpanStats()
			if st.Events == 0 {
				t.Fatal("recorder stored no child events")
			}
		})
	}
}

// TestSpanFaultFlight checks an injection run produces a fault flight
// recording whose verdict matches the injection result.
func TestSpanFaultFlight(t *testing.T) {
	cfg := spanTestConfig(Directory, 5)
	inj := Injection{Kind: FaultMsgDrop, Node: 1, Cycle: 4000}
	res, s, err := RunInjectionSystem(cfg, Uniform(128, 0.7), inj, 60000)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := s.Spans()
	if err != nil {
		t.Fatal(err)
	}
	var flight *span.Span
	for i := range spans {
		if spans[i].Family == span.FamilyFault {
			flight = &spans[i]
		}
	}
	if flight == nil {
		t.Fatal("no fault flight recording")
	}
	if got := FaultKind(flight.Kind); got != inj.Kind {
		t.Fatalf("flight kind %v != injected %v", got, inj.Kind)
	}
	want := span.OutcomeEscape
	switch {
	case !res.Applied:
		want = span.OutcomeNotApplied
	case res.Detected:
		want = span.OutcomeDetected
	case res.Masked:
		want = span.OutcomeMasked
	}
	if flight.Outcome != want {
		t.Fatalf("flight outcome %v, injection verdict implies %v (result %+v)", flight.Outcome, want, res)
	}
	if res.Applied && len(flight.Events) == 0 {
		t.Fatal("applied fault's flight recording has no transitions")
	}
}

// TestSpanChromeExport checks the system-level dump renders to strict,
// deterministic Chrome trace-event JSON.
func TestSpanChromeExport(t *testing.T) {
	cfg := spanTestConfig(Directory, 2)
	dump := runSpanDump(t, cfg, 20000)
	meta, spans, err := span.Decode(dump)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := span.WriteChrome(&buf, meta, spans, nil); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("chrome export is not strict JSON: %v", err)
	}
	if len(out.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
}
