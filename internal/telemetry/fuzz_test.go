package telemetry

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// FuzzDecodeSnapshot: bytes either decode to a snapshot every renderer
// and the merge can take — dvmc-stat hands a decoded snapshot to all of
// them — or are refused with the offset or the field at fault. Never a
// panic, and never more elements than the input has bytes.
func FuzzDecodeSnapshot(f *testing.F) {
	var seed bytes.Buffer
	if err := buildSnapshot(5000).EncodeJSON(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"cycle":1,"metrics":[{"name":"m","kind":"counter","values":[]}]}`))
	f.Add([]byte(`{"cycle":1,"metrics":[],"series":[{"name":"s","cycles":[1,2],"values":[1]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			if msg := err.Error(); !strings.Contains(msg, "offset ") && !strings.Contains(msg, "metric ") && !strings.Contains(msg, "series ") {
				t.Fatalf("refusal names neither an offset nor a field: %v", err)
			}
			return
		}
		n := len(s.Metrics) + len(s.Series) + len(s.Events) + len(s.Latency)
		for i := range s.Metrics {
			n += len(s.Metrics[i].Values)
		}
		for i := range s.Series {
			n += len(s.Series[i].Cycles)
		}
		for i := range s.Latency {
			n += len(s.Latency[i].Values)
		}
		if n > len(data) {
			t.Fatalf("%d elements out of %d bytes", n, len(data))
		}
		for name, render := range map[string]func(io.Writer) error{
			"text": s.Text, "prom": s.Prometheus, "csv": s.CSV, "series-csv": s.SeriesCSV,
		} {
			if err := render(io.Discard); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		var again bytes.Buffer
		if err := s.EncodeJSON(&again); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSnapshot(&again); err != nil {
			t.Fatalf("a decoded snapshot does not survive its own encoding: %v", err)
		}
		_, _ = MergeSnapshots(s, s) // may refuse (conflicting schemas); must not panic
	})
}
