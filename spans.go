package dvmc

import (
	"fmt"

	"dvmc/internal/coherence"
	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
	"dvmc/internal/span"
)

// SpanConfig re-exports the span recorder configuration.
type SpanConfig = span.Config

// SpansOn returns an enabled span configuration (ring capacity
// span.DefaultCap).
func SpansOn() SpanConfig { return span.On() }

// SpanMeta returns the header a system built from this configuration
// stamps on its span dump; it mirrors TraceMeta so the two artifact
// kinds of one run identify the same (Config, Workload, Seed) point.
func (c Config) SpanMeta() span.Meta {
	return span.Meta{
		Nodes:    c.Nodes,
		Model:    uint8(c.Model),
		Protocol: uint8(c.Protocol - 1), // 0 directory, 1 snooping
		Seed:     c.Seed,
	}
}

// WithSpans returns a copy with span recording configured.
func (c Config) WithSpans(sc SpanConfig) Config {
	c.Spans = sc
	return c
}

// txnTap adapts one controller's MSHR lifecycle into transaction spans:
// a span opens when the miss issues onto the interconnect and closes
// when the MSHR retires. The in-place S→M upgrade closes the read span
// as upgraded and continues in a fresh write span.
type txnTap struct {
	s    *System
	node int32
}

func (t txnTap) TxnBegin(b mem.BlockAddr, wantM bool) {
	kind := span.TxnRead
	if wantM {
		kind = span.TxnWrite
	}
	t.s.spanRec.TxnBegin(t.node, uint64(b), kind, t.s.kernel.Now())
}

func (t txnTap) TxnEnd(b mem.BlockAddr, upgraded bool) {
	out := span.OutcomeDone
	if upgraded {
		out = span.OutcomeUpgraded
	}
	t.s.spanRec.TxnEnd(t.node, uint64(b), out, t.s.kernel.Now())
}

// hopOf classifies a protocol message for span attachment: its child-
// event label, the block it concerns, and the requesting node when the
// payload names one (-1 otherwise). ok is false for non-protocol
// traffic (informs, SafetyNet log records).
func hopOf(m *network.Message) (label span.Label, addr uint64, requestor int32, ok bool) {
	requestor = -1
	switch p := m.Payload.(type) {
	case *coherence.MsgGetS:
		return span.LabelGetS, uint64(p.Block), int32(p.Requestor), true
	case *coherence.MsgGetM:
		return span.LabelGetM, uint64(p.Block), int32(p.Requestor), true
	case *coherence.MsgPutS:
		return span.LabelPutS, uint64(p.Block), int32(p.Requestor), true
	case *coherence.MsgPutM:
		return span.LabelPutM, uint64(p.Block), int32(p.Requestor), true
	case *coherence.MsgData:
		return span.LabelData, uint64(p.Block), requestor, true
	case *coherence.MsgPermM:
		return span.LabelPermM, uint64(p.Block), requestor, true
	case *coherence.MsgInv:
		return span.LabelInv, uint64(p.Block), requestor, true
	case *coherence.MsgInvAck:
		return span.LabelInvAck, uint64(p.Block), requestor, true
	case *coherence.MsgRecall:
		return span.LabelRecall, uint64(p.Block), requestor, true
	case *coherence.MsgRecallAck:
		return span.LabelRecallAck, uint64(p.Block), requestor, true
	case *coherence.MsgWBAck:
		return span.LabelWBAck, uint64(p.Block), requestor, true
	case *coherence.MsgUnblock:
		return span.LabelUnblock, uint64(p.Block), int32(p.From), true
	case *coherence.MsgSnoop:
		return span.LabelSnoop, uint64(p.Block), int32(p.Requestor), true
	case *coherence.MsgSnoopData:
		return span.LabelSnoopData, uint64(p.Block), requestor, true
	case *coherence.MsgSnoopWB:
		return span.LabelSnoopWB, uint64(p.Block), int32(p.From), true
	default:
		return 0, 0, -1, false
	}
}

// spanHop is the network delivery observer: it attaches each protocol
// hop to the open transaction span it serves. A payload that names its
// requestor is attributed only to that node's open span — falling back
// to Dst/Src there would both waste probes on the hot path and risk
// attaching the hop to an unrelated transaction open on the same block
// at another node. Block-only payloads are probed against the
// destination and then the source node, covering grants arriving at
// the requestor and acks returning to it. Hops that match no open span
// (sharer-side invalidations, clean evictions with no MSHR) are
// counted as orphans, not errors.
func (s *System) spanHop(m *network.Message, at sim.Cycle) {
	label, addr, requestor, ok := hopOf(m)
	if !ok {
		return
	}
	a, b := uint64(m.Src), uint64(m.Dst)
	rec := s.spanRec
	if requestor >= 0 {
		if !rec.TxnEvent(requestor, addr, label, at, a, b) {
			rec.Orphan()
		}
		return
	}
	if rec.TxnEvent(int32(m.Dst), addr, label, at, a, b) {
		return
	}
	if rec.TxnEvent(int32(m.Src), addr, label, at, a, b) {
		return
	}
	rec.Orphan()
}

// buildSpans installs the span recorder and its taps: per-controller
// transaction listeners and the network delivery observer. It registers
// no kernel component: the work profile over time is telemetry's
// tracked series, and a fault's life is the trace's.
// Called at the end of NewSystem, after buildTelemetry; with
// Config.Spans disabled it installs nothing and the only residual cost
// is a nil observer check on the network delivery path.
func (s *System) buildSpans(cfg Config) {
	if !cfg.Spans.Enabled {
		return
	}
	s.spanRec = span.NewRecorder(cfg.Spans)
	for n, ctrl := range s.ctrls {
		ctrl.SetTxnListener(txnTap{s: s, node: int32(n)})
	}
	s.torus.SetObserver(s.spanHop)
	if s.bcast != nil {
		s.bcast.SetObserver(s.spanHop)
	}
}

// SpanStats returns recorder accounting (zero value when spans are
// off).
func (s *System) SpanStats() span.Stats {
	if s.spanRec == nil {
		return span.Stats{}
	}
	return s.spanRec.Stats()
}

// Spans drains the recorder: a sorted, deep-copied snapshot of the
// retained spans as of the current cycle. Non-destructive and
// repeatable; still-open spans are stamped with the current cycle as
// their end. Returns an error when span recording was not enabled.
func (s *System) Spans() ([]span.Span, error) {
	if s.spanRec == nil {
		return nil, fmt.Errorf("dvmc: span recording not enabled (set Config.Spans)")
	}
	return s.spanRec.Drain(s.kernel.Now()), nil
}

// SpanBytes drains the recorder and returns the deterministic binary
// span dump (decode with internal/span or render with dvmc-stat
// timeline). Returns an error when span recording was not enabled.
func (s *System) SpanBytes() ([]byte, error) {
	spans, err := s.Spans()
	if err != nil {
		return nil, err
	}
	return span.Encode(s.cfg.SpanMeta(), spans)
}
