package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one stage of a benchmark run: a call (or group of calls) into
// a public function of the program, recorded from outside it.
type Span struct {
	ID     int
	Parent int // -1 for a root
	Lane   int // 0 is the driving goroutine; workers get their own
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
}

// Recorder keeps spans in memory until the run ends. A nil or disabled
// recorder costs one branch per call, so the untraced pass runs the
// same code as the traced one.
type Recorder struct {
	mu    sync.Mutex
	on    bool
	epoch time.Time
	spans []Span
}

func newRecorder(on bool) *Recorder {
	return &Recorder{on: on, epoch: time.Now()}
}

// Begin opens a span under parent (-1 for none) on the given lane and
// returns its id, or -1 when the recorder is off.
func (r *Recorder) Begin(parent, lane int, name string) int {
	if r == nil || !r.on {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Lane: lane, Name: name, Start: now, End: -1})
	return id
}

// End closes a span opened by Begin.
func (r *Recorder) End(id int) {
	if id < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// Do runs fn inside a span on lane 0.
func (r *Recorder) Do(parent int, name string, fn func(id int)) {
	id := r.Begin(parent, 0, name)
	fn(id)
	r.End(id)
}

// Spans returns the closed spans recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its child spans on the same lane cover. Children on
// other lanes run concurrently with the parent's own waiting, so they
// take nothing from it; that keeps the lane-0 self times of a tree
// summing to the root's duration.
func selfTimes(spans []Span) map[int]time.Duration {
	type iv struct{ a, b time.Duration }
	kids := make(map[int][]iv)
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok || p.Lane != s.Lane {
			continue
		}
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			kids[s.Parent] = append(kids[s.Parent], iv{a, b})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, end time.Duration
		end = s.Start
		for _, k := range ivs {
			if k.b <= end {
				continue
			}
			covered += k.b - max(k.a, end)
			end = k.b
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// selfByName sums self times per span name over lane 0.
func selfByName(spans []Span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.Lane == 0 {
			out[s.Name] += self[s.ID]
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeEvents renders one workload's spans as a Chrome trace process.
func chromeEvents(spans []Span, pid int, proc string) []chromeEvent {
	self := selfTimes(spans)
	events := make([]chromeEvent, 0, len(spans)+1)
	events = append(events, chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": proc}})
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Pid: pid, Tid: s.Lane,
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent,
				"self_us": float64(self[s.ID]) / float64(time.Microsecond),
			},
		})
	}
	return events
}

// writeChrome writes events as a Chrome trace JSON document.
func writeChrome(w io.Writer, events []chromeEvent) error {
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
