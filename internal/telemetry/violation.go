package telemetry

import (
	"sort"

	"dvmc/internal/stats"
)

// ViolationEvent is one structured checker firing: which invariant, on
// which node, at which address/epoch, when the underlying fault was
// activated versus when the checker caught it, and which comparison
// caught it. The event log turns the campaign's end-of-run latency
// aggregates into explainable per-detection records.
type ViolationEvent struct {
	// Invariant is the violation-kind name (core.ViolationKind.String()).
	Invariant string `json:"invariant"`
	// Node is the detecting node.
	Node int `json:"node"`
	// Addr is the implicated address (0 if not address-attributed).
	Addr uint64 `json:"addr"`
	// Epoch is the implicated epoch (0 if not epoch-attributed).
	Epoch uint64 `json:"epoch,omitempty"`
	// InjectCycle is the cycle the fault activated (0 when unknown, e.g.
	// fault-free runs or faults detected before attribution).
	InjectCycle uint64 `json:"inject_cycle,omitempty"`
	// DetectCycle is the cycle the checker fired.
	DetectCycle uint64 `json:"detect_cycle"`
	// Latency is DetectCycle-InjectCycle when InjectCycle is known.
	Latency uint64 `json:"latency,omitempty"`
	// Detail names the comparison that caught it (e.g. "vc store value",
	// "met inform order", "cet epoch overlap").
	Detail string `json:"detail,omitempty"`
}

// RecordViolation appends ev to the bounded event log. Beyond
// DefaultMaxEvents further events are counted (EventsDropped) but not
// stored, keeping memory bounded on pathological runs. When the event carries a known
// inject cycle, its latency also feeds the per-invariant distribution.
func (r *Registry) RecordViolation(ev ViolationEvent) {
	if ev.InjectCycle != 0 && ev.DetectCycle >= ev.InjectCycle {
		ev.Latency = ev.DetectCycle - ev.InjectCycle
		r.ObserveLatency(ev.Invariant, ev.Latency)
	}
	if len(r.events) >= DefaultMaxEvents {
		r.eventsDropped++
		return
	}
	r.events = append(r.events, ev)
}

// ObserveLatency adds one detection-latency observation (in cycles) to
// the named invariant's distribution.
func (r *Registry) ObserveLatency(invariant string, cycles uint64) {
	for i, n := range r.latNames {
		if n == invariant {
			r.latSamples[i].Add(float64(cycles))
			return
		}
	}
	s := &stats.Sample{}
	s.Add(float64(cycles))
	r.latNames = append(r.latNames, invariant)
	r.latSamples = append(r.latSamples, s)
}

// AttributeInjection back-fills the activation cycle of a known
// injected fault onto every recorded event detected at or after it that
// has no attribution yet, feeding each resulting latency into the
// per-invariant distribution. Injection harnesses call this once the
// fault's activation time is known (armed faults activate after they
// are placed).
func (r *Registry) AttributeInjection(injectCycle uint64) {
	if injectCycle == 0 {
		return
	}
	for i := range r.events {
		ev := &r.events[i]
		if ev.InjectCycle != 0 || ev.DetectCycle < injectCycle {
			continue
		}
		ev.InjectCycle = injectCycle
		ev.Latency = ev.DetectCycle - injectCycle
		r.ObserveLatency(ev.Invariant, ev.Latency)
	}
}

// Events returns the recorded violation events in arrival order.
func (r *Registry) Events() []ViolationEvent { return r.events }

// EventsDropped returns how many events were discarded after the log
// filled.
func (r *Registry) EventsDropped() uint64 { return r.eventsDropped }

// InvariantLatency is one invariant's detection-latency distribution.
type InvariantLatency struct {
	Invariant string
	Sample    *stats.Sample
}

// LatencyByInvariant returns the per-invariant detection-latency
// distributions sorted by invariant name.
func (r *Registry) LatencyByInvariant() []InvariantLatency {
	out := make([]InvariantLatency, 0, len(r.latNames))
	for i, n := range r.latNames {
		out = append(out, InvariantLatency{Invariant: n, Sample: r.latSamples[i]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Invariant < out[j].Invariant })
	return out
}
