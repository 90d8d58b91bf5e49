package stream

import (
	"bytes"
	"io"
	"sort"

	"dvmc/internal/oracle"
	"dvmc/internal/trace"
)

// Options is what the frozen benchmark/ spells when it builds a checker.
type Options struct {
	// Shards is read by nothing; it exists so that benchmark/ compiles, and
	// goes with stream.shards2_ns_per_event in the next benchmark PR.
	Shards int
}

// finding is one violation and the stream index of the event it judges.
type finding struct {
	idx uint64
	v   oracle.Violation
}

// Checker is the consistency oracle. Feed it events in stream order (it
// implements trace.Sink, so it can ride along with a live simulation),
// then Finish for a report byte-identical to the reference oracle.Check
// over the same stream. Single-threaded: one goroutine feeds and finishes.
type Checker struct {
	meta  trace.Meta
	nodes []nodeState

	// The value rule's state (value.go).
	writers   wset               // performed-store history; answers pending
	recovered wset               // recovery folds; legitimize later loads only
	pending   map[wkey][]finding // deferred R3 queries; nil until one is deferred

	found       []finding // in the order found, which is stream order
	stats       oracle.Stats
	frontier    int64 // committed-but-unperformed operations, all nodes
	maxFrontier int64
	report      *oracle.Report
}

// New builds a checker for a trace with the given header.
func New(meta trace.Meta, _ Options) *Checker {
	n := meta.Nodes
	if n < 1 {
		n = 1
	}
	return &Checker{
		meta:    meta,
		nodes:   make([]nodeState, n),
		writers: wset{first: writersFirst},
	}
}

// writersFirst sizes the write history's first table: the smallest power
// of two that holds the median fuzz case's distinct (word, value) points
// at half load. Over fuzz.TestCaseAllocBudget's 200 cases the median is
// 38 (quartiles 19 and 59, most 145).
const writersFirst = 128

// Feed judges one event: the owning node's ordering, structural and
// store-value rules, then the value rule. Events after Finish, and the
// annotation kinds (checkpoint, violation, fault), are neither judged nor
// counted. Steady-state allocation-free on legal traces.
func (c *Checker) Feed(ev trace.Event) {
	if c.report != nil {
		return
	}
	idx := c.stats.Events
	switch ev.Kind {
	case trace.EvCheckpoint, trace.EvViolation, trace.EvFault:
		return
	case trace.EvRecover:
		c.recover()
	case trace.EvCommit:
		c.commit(idx, &ev)
	case trace.EvPerform:
		c.perform(idx, &ev)
	}
	c.stats.Events++
}

// Emit implements trace.Sink, so a Checker can receive a simulation's
// events as they are emitted and verify the run as it goes (the root
// package's judged run).
func (c *Checker) Emit(ev trace.Event) { c.Feed(ev) }

// violate records a finding against the event at stream index idx.
func (c *Checker) violate(idx uint64, rule oracle.Rule, ev *trace.Event, detail string) {
	c.found = append(c.found, finding{idx: idx, v: oracle.Violation{
		Rule: rule, Node: int(ev.Node), Seq: ev.Seq, Time: ev.Time, Detail: detail,
	}})
}

// Finish returns the verdict, byte-identical to oracle.Check over the
// same event stream. Idempotent.
func (c *Checker) Finish() *oracle.Report {
	if c.report != nil {
		return c.report
	}
	for i := range c.nodes {
		c.stats.UnperformedAtEnd += len(c.nodes[i].committed)
	}
	// Value queries nobody answered are the one kind of finding known later
	// than its event. The reference reports it where it judges the event,
	// after that event's other rules: R3 is the last one it runs.
	var late []finding
	for _, qs := range c.pending {
		late = append(late, qs...)
	}
	sort.Slice(late, func(i, j int) bool { return late[i].idx < late[j].idx })
	var vs []oracle.Violation // nil when clean, as the reference leaves it
	for _, f := range c.found {
		for len(late) > 0 && late[0].idx < f.idx {
			vs = append(vs, late[0].v)
			late = late[1:]
		}
		vs = append(vs, f.v)
	}
	for _, q := range late {
		vs = append(vs, q.v)
	}
	c.pending = nil // they are findings now
	c.report = &oracle.Report{Meta: c.meta, Violations: vs, Stats: c.stats}
	return c.report
}

// EventsFed returns the events accepted so far.
func (c *Checker) EventsFed() uint64 { return c.stats.Events }

// FrontierDepth returns the current committed-but-unperformed population
// across all nodes.
func (c *Checker) FrontierDepth() int64 { return c.frontier }

// MaxFrontier returns the high-water FrontierDepth — the bounded-memory
// claim is over this number.
func (c *Checker) MaxFrontier() int64 { return c.maxFrontier }

// PendingValueQueries returns the open deferred R3 queries (zero on legal
// traces once writers catch up).
func (c *Checker) PendingValueQueries() int64 {
	var n int64
	//dvmc:orderinsensitive a sum
	for _, qs := range c.pending {
		n += int64(len(qs))
	}
	return n
}

// CheckReader checks a binary trace from src — a file, a pipe from a
// live `dvmc-sim -trace-out -`, anything — as its bytes arrive, without ever
// holding the byte stream or the event slice. Returns the decoder's
// positioned error if the trace is damaged.
func CheckReader(src io.Reader, opts Options) (*oracle.Report, error) {
	r, err := trace.NewReader(src)
	if err != nil {
		return nil, err
	}
	c := New(r.Meta(), opts)
	for {
		ev, err := r.Next()
		if err == io.EOF {
			return c.Finish(), nil
		}
		if err != nil {
			return nil, err
		}
		c.Feed(ev)
	}
}

// CheckBytes is CheckReader over an in-memory trace.
func CheckBytes(data []byte, opts Options) (*oracle.Report, error) {
	return CheckReader(bytes.NewReader(data), opts)
}
