package stream

import (
	"io"
	"reflect"
	"testing"

	"dvmc/internal/consistency"
	"dvmc/internal/mem"
	"dvmc/internal/oracle"
	"dvmc/internal/sim"
	"dvmc/internal/trace"
)

// rng is a splitmix64 — deterministic across runs and Go versions.
type rng struct{ s uint64 }

func (g *rng) next() uint64 {
	g.s += 0x9E3779B97F4A7C15
	z := g.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (g *rng) n(n int) int { return int(g.next() % uint64(n)) }

// synthCfg shapes the synthetic trace generator.
type synthCfg struct {
	nodes   int
	events  int
	seed    uint64
	fifo    bool // perform strictly in commit order (keeps R1/R2 silent)
	faults  bool // inject structural/value anomalies
	recover bool // emit SafetyNet rollback markers
}

// synth generates a trace with the recorder's event shapes: per-node
// monotonic seqs, commit-then-perform pairs, membars, RMWs, forwarded
// loads, optional rollback markers and injected anomalies. With fifo
// and no faults the trace is violation-free under any model.
func synth(cfg synthCfg) (trace.Meta, []trace.Event) {
	g := &rng{s: cfg.seed}
	meta := trace.Meta{Version: trace.Version, Nodes: cfg.nodes, Model: consistency.TSO, Seed: cfg.seed}
	models := []consistency.Model{consistency.SC, consistency.TSO, consistency.PSO, consistency.RMO}

	type pend struct{ ev trace.Event }
	seqs := make([]uint64, cfg.nodes)
	committed := make([][]pend, cfg.nodes)
	written := map[mem.Addr][]mem.Word{} // generator-side legal values
	var out []trace.Event
	var now uint64

	legalVal := func(a mem.Addr) mem.Word {
		vs := written[a]
		if len(vs) == 0 || g.n(8) == 0 {
			return 0
		}
		return vs[g.n(len(vs))]
	}

	for len(out) < cfg.events {
		now += uint64(g.n(3))
		node := g.n(cfg.nodes)
		if cfg.recover && g.n(400) == 0 {
			out = append(out, trace.Event{Kind: trace.EvRecover, Time: sim.Cycle(now)})
			for i := range committed {
				committed[i] = nil // discarded; they never perform
			}
			continue
		}
		switch {
		case g.n(100) < 55 || len(committed[node]) == 0:
			// Commit a fresh op.
			seqs[node]++
			ev := trace.Event{
				Kind: trace.EvCommit, Node: uint8(node), Seq: seqs[node],
				Model: models[g.n(len(models))], Time: sim.Cycle(now),
			}
			switch g.n(10) {
			case 0:
				ev.Class = consistency.Membar
				ev.Mask = consistency.MembarMask(1 + g.n(15))
			case 1:
				ev.Class = consistency.Store
				ev.IsRMW = true
				ev.Addr = mem.Addr(8 * g.n(32))
				ev.Val = mem.Word(1 + g.n(200))
			case 2, 3, 4:
				ev.Class = consistency.Store
				ev.Addr = mem.Addr(8 * g.n(32))
				ev.Val = mem.Word(1 + g.n(200))
			default:
				ev.Class = consistency.Load
				ev.Addr = mem.Addr(8 * g.n(32))
				ev.Fwd = g.n(7) == 0
				ev.Val = legalVal(ev.Addr)
				if ev.Fwd {
					ev.Val = mem.Word(g.n(500)) // forwarded: anything goes
				}
			}
			committed[node] = append(committed[node], pend{ev: ev})
			out = append(out, ev)
		default:
			// Perform a committed op.
			i := 0
			if !cfg.fifo {
				i = g.n(len(committed[node]))
			}
			ev := committed[node][i].ev
			committed[node] = append(committed[node][:i], committed[node][i+1:]...)
			ev.Kind = trace.EvPerform
			ev.Time = sim.Cycle(now)
			if ev.Class == consistency.Store {
				if ev.IsRMW {
					ev.Val2 = legalVal(ev.Addr) // atomic load half
				}
				written[ev.Addr] = append(written[ev.Addr], ev.Val)
			}
			out = append(out, ev)
		}
		if cfg.faults && g.n(150) == 0 {
			// Inject an anomaly of a random flavour.
			f := trace.Event{
				Kind: trace.EvPerform, Node: uint8(node), Model: meta.Model, Time: sim.Cycle(now),
			}
			switch g.n(6) {
			case 0: // R4: perform without commit
				f.Class = consistency.Store
				f.Seq = seqs[node] + 100 + uint64(g.n(50))
				f.Addr, f.Val = mem.Addr(8*g.n(32)), mem.Word(1+g.n(200))
				written[f.Addr] = append(written[f.Addr], f.Val)
			case 1: // R4: double commit
				f.Kind = trace.EvCommit
				f.Class = consistency.Load
				f.Seq = seqs[node]
			case 2: // R3: load binds a value nobody wrote
				f.Class = consistency.Load
				seqs[node]++
				f.Seq = seqs[node]
				f.Addr, f.Val = mem.Addr(8*g.n(32)), mem.Word(100000+g.n(1000))
				fc := f
				fc.Kind = trace.EvCommit
				out = append(out, fc)
			case 3: // R4: event for an out-of-range node
				f.Kind = trace.EvCommit
				f.Class = consistency.Store
				f.Node = uint8(cfg.nodes + g.n(3))
				f.Seq = 1 + uint64(g.n(5))
				f.Addr, f.Val = mem.Addr(8*g.n(32)), mem.Word(1+g.n(200))
			case 4: // R5: store performs with a flipped value
				if len(committed[node]) > 0 {
					i := g.n(len(committed[node]))
					ev := committed[node][i].ev
					if ev.Class == consistency.Store && !ev.IsRMW {
						committed[node] = append(committed[node][:i], committed[node][i+1:]...)
						ev.Kind = trace.EvPerform
						ev.Val ^= 0x40
						ev.Time = sim.Cycle(now)
						written[ev.Addr] = append(written[ev.Addr], ev.Val)
						f = ev
					} else {
						continue
					}
				} else {
					continue
				}
			case 5: // R4: double perform
				if len(out) == 0 {
					continue
				}
				prev := out[g.n(len(out))]
				if prev.Kind != trace.EvPerform || prev.Class == consistency.Membar {
					continue
				}
				f = prev
				f.Time = sim.Cycle(now)
			}
			out = append(out, f)
		}
	}
	return meta, out
}

// configs is the single configuration there is.
func configs() []Options { return []Options{{}} }

// runStream feeds events through a fresh checker.
func runStream(meta trace.Meta, events []trace.Event, o Options) *oracle.Report {
	c := New(meta, o)
	for _, ev := range events {
		c.Feed(ev)
	}
	return c.Finish()
}

// TestEquivalenceSynthetic checks report identity against the batch
// oracle on generated traces of every flavour: clean FIFO, reordered (R1/R2-rich), rollback-bearing, and
// anomaly-injected.
func TestEquivalenceSynthetic(t *testing.T) {
	cases := []synthCfg{
		{nodes: 4, events: 4000, seed: 1, fifo: true},
		{nodes: 4, events: 4000, seed: 2, fifo: true, recover: true},
		{nodes: 3, events: 4000, seed: 3}, // out-of-order performs: R1/R2 fire
		{nodes: 4, events: 4000, seed: 4, faults: true},
		{nodes: 5, events: 6000, seed: 5, faults: true, recover: true},
		{nodes: 1, events: 1500, seed: 6, faults: true},
	}
	for ci, sc := range cases {
		meta, events := synth(sc)
		want := oracle.Check(meta, events)
		for _, o := range configs() {
			got := runStream(meta, events, o)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("case %d opts %+v: stream diverges from batch\nbatch:  %d violations %+v\nstream: %d violations %+v",
					ci, o, len(want.Violations), want.Stats, len(got.Violations), got.Stats)
			}
		}
		if sc.faults && want.Clean() {
			t.Errorf("case %d: fault-injected trace came back clean (generator too weak)", ci)
		}
	}
}

// TestEquivalenceCheckBytes covers the encode/decode path end to end.
func TestEquivalenceCheckBytes(t *testing.T) {
	meta, events := synth(synthCfg{nodes: 4, events: 3000, seed: 7, faults: true, recover: true})
	// The codec refuses an event for a node its header does not declare,
	// and synth's out-of-range anomaly stamps up to nodes+2.
	meta.Nodes += 3
	data, err := trace.Encode(meta, events)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.CheckBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range configs() {
		got, err := CheckBytes(data, o)
		if err != nil {
			t.Fatalf("opts %+v: %v", o, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("opts %+v: CheckBytes diverges from batch", o)
		}
	}
}

// TestCheckReaderRefusesTruncated mirrors the batch refusal.
func TestCheckReaderRefusesTruncated(t *testing.T) {
	meta, events := synth(synthCfg{nodes: 2, events: 100, seed: 8, fifo: true})
	meta.Truncated = true
	data, err := trace.Encode(meta, events)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CheckBytes(data, Options{}); err != oracle.ErrTruncatedTrace {
		t.Fatalf("got %v, want ErrTruncatedTrace", err)
	}
}

// TestUnansweredLoadReportsAtItsEvent pins the one place the order
// findings are made in and the order they are reported in differ: a load
// of a value nobody ever writes is a finding only once the stream has
// ended, and is reported where the reference judges it — at its own
// event, after that event's other rules and before any later event's.
func TestUnansweredLoadReportsAtItsEvent(t *testing.T) {
	meta := trace.Meta{Version: trace.Version, Nodes: 1, Model: consistency.TSO}
	load := func(kind trace.Kind, seq uint64, addr mem.Addr, val mem.Word) trace.Event {
		return trace.Event{Kind: kind, Class: consistency.Load, Model: consistency.TSO, Seq: seq, Addr: addr, Val: val}
	}
	events := []trace.Event{
		load(trace.EvCommit, 1, 8, 7),
		load(trace.EvPerform, 1, 8, 7),  // R3, known at end of stream
		load(trace.EvPerform, 5, 16, 9), // R4 at once, R3 at end of stream
		{Kind: trace.EvPerform, Class: consistency.Store, Model: consistency.TSO, Seq: 9, Addr: 24, Val: 1}, // R4 at once
	}
	got := runStream(meta, events, Options{})
	if want := oracle.Check(meta, events); !reflect.DeepEqual(want, got) {
		t.Fatalf("stream diverges from batch\nbatch:  %v\nstream: %v", want.Violations, got.Violations)
	}
	type at struct {
		rule oracle.Rule
		seq  uint64
	}
	want := []at{
		{oracle.RuleLoadValue, 1}, {oracle.RuleStructural, 5}, {oracle.RuleLoadValue, 5}, {oracle.RuleStructural, 9},
	}
	if len(got.Violations) != len(want) {
		t.Fatalf("%d violations, want %d: %v", len(got.Violations), len(want), got.Violations)
	}
	for i, w := range want {
		if v := got.Violations[i]; v.Rule != w.rule || v.Seq != w.seq {
			t.Errorf("violation %d is %s seq %d, want %s seq %d", i, v.Rule, v.Seq, w.rule, w.seq)
		}
	}
}

// TestStreamPipeSoak drives the checker from a live pipe — the
// dvmc-trace record - | dvmc-trace check - topology — with far more
// events than the frontier retains, and asserts the frontier (the
// retained state) stayed bounded while the verdict stayed clean.
func TestStreamPipeSoak(t *testing.T) {
	n := 2_000_000
	if testing.Short() {
		n = 200_000
	}
	sc := synthCfg{nodes: 4, events: n, seed: 9, fifo: true, recover: true}
	meta, events := synth(sc) // generator memory, not checker memory
	pr, pw := io.Pipe()
	go func() {
		w, err := trace.NewWriter(pw, meta)
		if err != nil {
			pw.CloseWithError(err)
			return
		}
		for _, ev := range events {
			if err := w.Write(ev); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		pw.CloseWithError(w.Close())
	}()
	c, err := trace.NewReader(pr)
	if err != nil {
		t.Fatal(err)
	}
	chk := New(c.Meta(), Options{})
	for {
		ev, err := c.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		chk.Feed(ev)
	}
	rep := chk.Finish()
	if !rep.Clean() {
		t.Fatalf("soak trace not clean: %d violations, first: %v", len(rep.Violations), rep.Violations[0])
	}
	if rep.Stats.Events != uint64(n) {
		t.Fatalf("checked %d events, want %d", rep.Stats.Events, n)
	}
	if chk.EventsFed() != uint64(n) {
		t.Fatalf("EventsFed = %d, want %d", chk.EventsFed(), n)
	}
	// The frontier is the retained state; a soak must keep it far below
	// the event count (batch retains O(events)).
	if max := chk.MaxFrontier(); max <= 0 || max > 10_000 {
		t.Fatalf("MaxFrontier = %d: retained state not bounded", max)
	}
}

// TestSeqSet cross-checks the interval set against a reference map.
func TestSeqSet(t *testing.T) {
	g := &rng{s: 42}
	var s seqSet
	ref := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		v := uint64(g.n(300))
		if g.n(3) == 0 {
			s.add(v)
			ref[v] = true
		}
		q := uint64(g.n(300))
		if s.contains(q) != ref[q] {
			t.Fatalf("step %d: contains(%d) = %v, ref %v (intervals %v)", i, q, s.contains(q), ref[q], s.iv)
		}
	}
	if s.len64() > 300 {
		t.Fatalf("interval count %d exceeds key range", s.len64())
	}
}

// TestWSet runs the flat write-history set against a map model over random
// add / has operations: the zero key, keys one address apart, values that
// differ only above bit 40 (they agree in every low bit a small table
// would index by), and enough distinct keys for many doublings.
func TestWSet(t *testing.T) {
	g := &rng{s: 7}
	var s wset
	model := map[wkey]struct{}{}
	key := func() wkey {
		switch g.n(4) {
		case 0:
			return wkey{}
		case 1: // one address, values alike in their low 40 bits
			return wkey{addr: 0x40, val: mem.Word(g.n(64)) << 40}
		case 2: // a small space, so adds and hits repeat
			return wkey{addr: mem.Addr(g.n(8)), val: mem.Word(g.n(8))}
		default: // a growing space: the table keeps doubling
			return wkey{addr: mem.Addr(g.n(4096) * 8), val: mem.Word(g.n(4))}
		}
	}
	doublings, size := 0, 0
	for i := 0; i < 120_000; i++ {
		k := key()
		_, in := model[k]
		if g.n(2) == 0 {
			if added := s.add(k); added == in {
				t.Fatalf("op %d: add(%v) = %v, model held it: %v", i, k, added, in)
			}
			model[k] = struct{}{}
		} else if got := s.has(k); got != in {
			t.Fatalf("op %d: has(%v) = %v, model %v", i, k, got, in)
		}
		if len(s.slots) != size {
			doublings, size = doublings+1, len(s.slots)
		}
		if 2*s.n > len(s.slots) {
			t.Fatalf("op %d: %d keys in %d slots, more than half full", i, s.n, len(s.slots))
		}
	}
	want := len(model)
	if s.zero {
		want-- // held in the flag, not a slot
	}
	if s.n != want {
		t.Fatalf("set holds %d keys in slots, model %d (zero key %v)", s.n, len(model), s.zero)
	}
	if doublings < 5 {
		t.Fatalf("table sized %d times, want several doublings", doublings)
	}
}

// TestStreamFeedSteadyStateAllocFree pins the zero-allocation claim:
// once the nodes' frontier slices, windows, interval sets, and the
// writer set reach their working set, the per-event step allocates nothing.
// Each measured run feeds a batch of events: AllocsPerRun truncates the
// per-run mean to an integer, so one event per run would hide an
// allocation made by only some event kinds (every legal load, say).
func TestStreamFeedSteadyStateAllocFree(t *testing.T) {
	meta, events := synth(synthCfg{nodes: 4, events: 200_000, seed: 10, fifo: true})
	c := New(meta, Options{})
	warm := len(events) / 2
	for _, ev := range events[:warm] {
		c.Feed(ev)
	}
	rest := events[warm:]
	const batch = 500
	pos := 0
	allocs := testing.AllocsPerRun(100, func() {
		for _, ev := range rest[pos : pos+batch] {
			c.Feed(ev)
		}
		pos += batch
	})
	if allocs != 0 {
		t.Fatalf("steady-state Feed allocates %.1f per %d events, want 0", allocs, batch)
	}
	c.Finish()
}

// BenchmarkStreamFeed measures the per-event cost of the checking step.
func BenchmarkStreamFeed(b *testing.B) {
	meta, events := synth(synthCfg{nodes: 4, events: 100_000, seed: 11, fifo: true})
	c := New(meta, Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j := i % len(events)
		if j == 0 && i > 0 {
			// Restart the checker rather than replay duplicate sequence
			// numbers into it.
			c = New(meta, Options{})
		}
		c.Feed(events[j])
	}
}
