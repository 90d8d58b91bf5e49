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
				var txn int
				for i := range spans {
					if spans[i].Family == span.FamilyTxn {
						txn++
					}
				}
				if txn == 0 {
					t.Fatal("no transaction spans")
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
