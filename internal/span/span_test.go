package span

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"dvmc/internal/frame"
	"dvmc/internal/sim"
)

func testMeta() Meta {
	return Meta{Nodes: 4, Model: 1, Protocol: 0, Seed: 42}
}

// fillRecorder records a representative mix: transactions with hops, and
// one displaced by a retry on its key.
func fillRecorder(r *Recorder) {
	r.TxnBegin(0, 0x40, TxnRead, 10)
	r.TxnEvent(0, 0x40, LabelGetS, 11, 0, 2)
	r.TxnEvent(0, 0x40, LabelData, 15, 2, 0)
	r.TxnEnd(0, 0x40, OutcomeDone, 16)

	r.TxnBegin(1, 0x80, TxnWrite, 12)
	r.TxnEvent(1, 0x80, LabelGetM, 13, 1, 2)
	r.TxnEvent(1, 0x80, LabelInv, 14, 2, 3)
	r.TxnEvent(1, 0x80, LabelInvAck, 18, 3, 2)
	r.TxnEnd(1, 0x80, OutcomeDone, 20)

	r.TxnBegin(2, 0xc0, TxnRead, 25)
	r.TxnEvent(2, 0xc0, LabelSnoop, 30, 2, 0)
	r.TxnBegin(2, 0xc0, TxnWrite, 40)
	r.TxnEnd(2, 0xc0, OutcomeUpgraded, 41)
}

func sameSpans(t *testing.T, got, want []Span) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("span count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		if g.ID != w.ID || g.Family != w.Family || g.Kind != w.Kind ||
			g.Node != w.Node || g.Addr != w.Addr || g.Start != w.Start ||
			g.End != w.End || g.Outcome != w.Outcome || g.Dropped != w.Dropped {
			t.Fatalf("span %d = %+v, want %+v", i, *g, *w)
		}
		if len(g.Events) != len(w.Events) {
			t.Fatalf("span %d events = %d, want %d", i, len(g.Events), len(w.Events))
		}
		for j := range w.Events {
			if g.Events[j] != w.Events[j] {
				t.Fatalf("span %d event %d = %+v, want %+v", i, j, g.Events[j], w.Events[j])
			}
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	r := NewRecorder(Config{Enabled: true})
	fillRecorder(r)
	spans := r.Drain(2000)

	data, err := Encode(testMeta(), spans)
	if err != nil {
		t.Fatal(err)
	}
	meta, got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if meta != testMeta() {
		t.Fatalf("meta = %+v, want %+v", meta, testMeta())
	}
	sameSpans(t, got, spans)

	// Same content re-encoded (from the decoded form) is byte-identical.
	again, err := Encode(meta, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("re-encoding a decoded dump changed bytes")
	}
}

func TestEncodeOrderInsensitive(t *testing.T) {
	r := NewRecorder(Config{Enabled: true})
	fillRecorder(r)
	spans := r.Drain(2000)
	rev := make([]Span, len(spans))
	for i := range spans {
		rev[len(spans)-1-i] = spans[i]
	}
	a, err := Encode(testMeta(), spans)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(testMeta(), rev)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("encoding depends on caller span order")
	}
}

func TestCRCDetectsCorruption(t *testing.T) {
	r := NewRecorder(Config{Enabled: true})
	fillRecorder(r)
	data, err := Encode(testMeta(), r.Drain(2000))
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{8, len(data) / 2, len(data) - 3} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x20
		if _, _, err := Decode(bad); err == nil {
			t.Fatalf("corruption at offset %d went undetected", off)
		}
	}
	if _, _, err := Decode(data[:len(data)-5]); err == nil {
		t.Fatal("truncation went undetected")
	}
}

// TestDecodeRefusesUnknownBytes: the decoder fails closed. A family,
// outcome or event label outside the defined sets — a dump from a build
// that recorded fault flights or phase slices, say — is refused at its
// record's offset instead of decoding into nameless spans.
func TestDecodeRefusesUnknownBytes(t *testing.T) {
	txn := func(id uint64, start sim.Cycle) Span {
		return Span{ID: id, Family: FamilyTxn, Kind: TxnRead, Node: 0, Addr: 0x40, Start: start, End: start + 10,
			Outcome: OutcomeDone, Events: []Event{{Label: LabelGetS, Time: start + 1, A: 0, B: 1}}}
	}
	for _, tc := range []struct {
		name string
		edit func(*Span)
		want string
	}{
		{"fault family", func(s *Span) { s.Family, s.Kind, s.Node, s.Outcome = 2, 7, 1, 4 }, "unknown span family 2"},
		{"family", func(s *Span) { s.Family, s.Kind, s.Node, s.Outcome = 3, 2, -1, 8 }, "unknown span family 3"},
		{"outcome", func(s *Span) { s.Outcome = OutcomeAborted + 1 }, "unknown span outcome 4"},
		{"label", func(s *Span) { s.Events[0].Label = LabelWork }, "span 3: unknown event label 16"},
	} {
		bad := txn(3, 40)
		tc.edit(&bad)
		data, err := Encode(testMeta(), []Span{txn(1, 10), txn(2, 20), bad})
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = Decode(data)
		var pe *frame.PosError
		if !errors.As(err, &pe) || pe.Record != 2 || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Decode = %v, want a record-2 refusal naming %q", tc.name, err, tc.want)
		}
	}
}

func TestRingEvictsOldestClosed(t *testing.T) {
	r := NewRecorder(Config{Enabled: true})
	const n = DefaultCap + 2
	for i := 0; i < n; i++ {
		r.TxnBegin(int32(i%2), uint64(0x40*(i+1)), TxnRead, sim.Cycle(10*i))
		r.TxnEnd(int32(i%2), uint64(0x40*(i+1)), OutcomeDone, sim.Cycle(10*i+5))
	}
	spans := r.Drain(10 * n)
	if len(spans) != DefaultCap {
		t.Fatalf("retained %d spans, want %d", len(spans), DefaultCap)
	}
	// The newest DefaultCap survive: IDs 2..n-1.
	if spans[0].ID != 2 || spans[DefaultCap-1].ID != n-1 {
		t.Fatalf("retained IDs %d..%d, want 2..%d", spans[0].ID, spans[DefaultCap-1].ID, n-1)
	}
	if st := r.Stats(); st.Spans != n || st.SpansDropped != 2 {
		t.Fatalf("stats = %+v, want %d spans / 2 dropped", st, n)
	}
}

// openAll opens DefaultCap transactions on node 0, filling the ring with
// spans that cannot be evicted.
func openAll(r *Recorder) {
	for i := 0; i < DefaultCap; i++ {
		r.TxnBegin(0, uint64(0x40*(i+1)), TxnRead, sim.Cycle(i))
	}
}

func TestRingRefusesWhenAllOpen(t *testing.T) {
	r := NewRecorder(Config{Enabled: true})
	openAll(r)
	const refused = 0x40 * (DefaultCap + 1)
	r.TxnBegin(0, refused, TxnRead, DefaultCap) // no closed span to evict: dropped
	if st := r.Stats(); st.SpansDropped != 1 {
		t.Fatalf("SpansDropped = %d, want 1", st.SpansDropped)
	}
	spans := r.Drain(2 * DefaultCap)
	if len(spans) != DefaultCap {
		t.Fatalf("retained %d spans, want %d", len(spans), DefaultCap)
	}
	// The refused span has no open entry: its events must not attach.
	if r.TxnEvent(0, refused, LabelGetS, DefaultCap+1, 0, 0) {
		t.Fatal("event attached to a span that was never admitted")
	}
}

func TestTxnCollisionAbortsPrior(t *testing.T) {
	r := NewRecorder(Config{Enabled: true})
	r.TxnBegin(0, 0x40, TxnRead, 1)
	r.TxnBegin(0, 0x40, TxnWrite, 5) // same key: displaces the first
	r.TxnEnd(0, 0x40, OutcomeDone, 9)
	spans := r.Drain(20)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Outcome != OutcomeAborted || spans[0].End != 5 {
		t.Fatalf("displaced span = %+v, want aborted at 5", spans[0])
	}
	if spans[1].Outcome != OutcomeDone || spans[1].Kind != TxnWrite {
		t.Fatalf("second span = %+v, want done write", spans[1])
	}
}

func TestEventCapDrops(t *testing.T) {
	r := NewRecorder(Config{Enabled: true})
	r.TxnBegin(0, 0x40, TxnRead, 1)
	for i := 0; i < DefaultEventCap+3; i++ {
		r.TxnEvent(0, 0x40, LabelGetS, sim.Cycle(2+i), 0, 0)
	}
	r.TxnEnd(0, 0x40, OutcomeDone, DefaultEventCap+10)
	spans := r.Drain(2 * DefaultEventCap)
	if len(spans[0].Events) != DefaultEventCap || spans[0].Dropped != 3 {
		t.Fatalf("span has %d events / %d dropped, want %d / 3", len(spans[0].Events), spans[0].Dropped, DefaultEventCap)
	}
	if st := r.Stats(); st.Events != DefaultEventCap || st.EventsDropped != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAbortOpen(t *testing.T) {
	r := NewRecorder(Config{Enabled: true})
	r.TxnBegin(0, 0x40, TxnRead, 1)
	r.TxnBegin(1, 0x80, TxnWrite, 2)
	r.TxnEnd(1, 0x80, OutcomeDone, 3)
	r.AbortOpen(7)
	if r.TxnEnd(0, 0x40, OutcomeDone, 9) {
		t.Fatal("span survived AbortOpen")
	}
	spans := r.Drain(20)
	if spans[0].Outcome != OutcomeAborted || spans[0].End != 7 {
		t.Fatalf("aborted span = %+v", spans[0])
	}
	if spans[1].Outcome != OutcomeDone {
		t.Fatalf("closed span touched by AbortOpen: %+v", spans[1])
	}
}

func TestDrainRepeatableAndStampsOpenEnds(t *testing.T) {
	r := NewRecorder(Config{Enabled: true})
	r.TxnBegin(0, 0x40, TxnRead, 5)
	a := r.Drain(50)
	b := r.Drain(50)
	sameSpans(t, b, a)
	if a[0].Outcome != OutcomeOpen || a[0].End != 50 {
		t.Fatalf("open span drained as %+v, want open with End 50", a[0])
	}
	// The recorder itself is untouched: the span can still close.
	if !r.TxnEnd(0, 0x40, OutcomeDone, 60) {
		t.Fatal("drain mutated the recorder")
	}
}

func TestChromeExportStrictJSON(t *testing.T) {
	r := NewRecorder(Config{Enabled: true})
	fillRecorder(r)
	spans := r.Drain(2000)
	counters := []ChromeEvent{
		{Name: "proc.ops_retired", Ph: "C", Args: map[string]any{"node=0": 900}},
		{Name: "net.bytes_total", Ph: "C", Args: map[string]any{"value": 1300}},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, testMeta(), spans, counters); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   uint64         `json:"ts"`
			Dur  uint64         `json:"dur"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("chrome export is not strict JSON: %v", err)
	}
	wantEvents := len(counters)
	for i := range spans {
		wantEvents += 1 + len(spans[i].Events)
	}
	if len(out.TraceEvents) != wantEvents {
		t.Fatalf("exported %d trace events, want %d", len(out.TraceEvents), wantEvents)
	}
	// Deterministic bytes: a second export is identical.
	var buf2 bytes.Buffer
	if err := WriteChrome(&buf2, testMeta(), spans, counters); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("chrome export is nondeterministic")
	}
}

// TestRecorderSteadyStateAllocFree pins the recording hot paths at zero
// allocations once warm: span open/close and hop events run out of
// preallocated storage (CI runs this by
// name alongside the other packages' AllocsPerRun assertions). The warm-up
// fills every slot, so each measured span evicts the oldest one.
func TestRecorderSteadyStateAllocFree(t *testing.T) {
	r := NewRecorder(Config{Enabled: true})
	// Warm: touch every slot and the open map's buckets.
	for i := 0; i < 2*DefaultCap; i++ {
		r.TxnBegin(int32(i%4), uint64(0x40*(i%64)), TxnRead, sim.Cycle(i))
		r.TxnEvent(int32(i%4), uint64(0x40*(i%64)), LabelGetS, sim.Cycle(i), 0, 1)
		r.TxnEnd(int32(i%4), uint64(0x40*(i%64)), OutcomeDone, sim.Cycle(i+1))
	}
	var now sim.Cycle = 1000
	evicted := r.Stats().SpansDropped
	allocs := testing.AllocsPerRun(200, func() {
		node := int32(uint64(now) % 4)
		addr := uint64(0x40 * (uint64(now) % 64))
		r.TxnBegin(node, addr, TxnWrite, now)
		r.TxnEvent(node, addr, LabelGetM, now+1, 0, 1)
		r.TxnEvent(node, addr, LabelData, now+3, 1, 0)
		r.TxnEnd(node, addr, OutcomeDone, now+4)
		now += 16
	})
	if allocs != 0 {
		t.Fatalf("steady-state recording allocates %.1f allocs/op, want 0", allocs)
	}
	// Each of the 201 runs opens one transaction span.
	if got := r.Stats().SpansDropped - evicted; got != 201 {
		t.Fatalf("%d evictions in 201 runs, want %d", got, 201)
	}
}
