package fabric

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCheckpoint: the journal joins the fuzz contract through its own
// target, since it is a different container from the sealed streams (a
// CRC per line, a droppable torn tail). Bytes either read as entries —
// no more of them than lines, each exactly a spec or a result — or are
// refused naming the record and the offset of its line. Never a panic.
func FuzzReadCheckpoint(f *testing.F) {
	var clean bytes.Buffer
	for _, e := range sampleEntries() {
		if err := AppendEntry(&clean, e); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(clean.Bytes())
	f.Add(clean.Bytes()[:clean.Len()-7]) // a torn tail
	f.Add([]byte(checkpointMagic + " 0f0f {\"result\":{\"shard\"\n"))
	f.Add(legacyJournal())
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, dropped, err := ReadCheckpoint(data)
		if err != nil {
			if msg := err.Error(); !strings.Contains(msg, "record ") || !strings.Contains(msg, "offset ") {
				t.Fatalf("refusal names no position: %v", err)
			}
			if entries != nil || dropped != 0 {
				t.Fatalf("a refused checkpoint still yielded %d entries, %d dropped", len(entries), dropped)
			}
			return
		}
		if lines := bytes.Count(data, []byte("\n")); len(entries) != lines {
			t.Fatalf("%d entries out of %d lines", len(entries), lines)
		}
		if dropped < 0 || dropped > len(data) || bytes.IndexByte(data[len(data)-dropped:], '\n') >= 0 {
			t.Fatalf("dropped tail of %d bytes is not the unterminated end of %d", dropped, len(data))
		}
		for i, e := range entries {
			if (e.Spec == nil) == (e.Result == nil) {
				t.Fatalf("entry %d carries both or neither of spec and result", i)
			}
		}
	})
}
