package dvmc

import (
	"fmt"

	"dvmc/internal/network"
)

// Results summarises one simulation interval: what Run, RunCycles or
// RunToCompletion added since the previous such call returned (or since
// construction). ResultsSoFar reports the same fields since cycle 0.
type Results struct {
	Cycles       uint64
	Transactions uint64

	// Core aggregates.
	OpsRetired     uint64
	LoadsExecuted  uint64
	SpecSquashes   uint64
	VerifySquashes uint64
	MembarStalls   uint64
	VCFullStalls   uint64
	WBFullStalls   uint64

	// Memory-system aggregates.
	L1Hits, L1Misses uint64
	L2Hits, L2Misses uint64
	ReplayLoads      uint64
	ReplayL1Misses   uint64
	Writebacks       uint64

	// Interconnect. MaxLinkBandwidth and MaxLinkByClass are means over
	// the whole run even in a later interval: the hottest link is chosen
	// by its whole-run mean, which has no per-interval counterpart.
	MaxLinkBandwidth float64 // bytes/cycle on the hottest link (Figure 7)
	MaxLinkByClass   map[network.Class]float64
	TotalLinkBytes   uint64

	// Checkers.
	Informs          uint64
	OpenInforms      uint64
	InformsProcessed uint64
	Violations       int

	// BER.
	Checkpoints uint64
	Recoveries  uint64
	LogMessages uint64
}

// TPKC returns transactions per thousand cycles — the throughput metric
// runtimes normalise from.
func (r Results) TPKC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Transactions) * 1000 / float64(r.Cycles)
}

// ReplayMissRatio returns replay L1 misses normalised to demand L1
// misses (Figure 6).
func (r Results) ReplayMissRatio() float64 {
	if r.L1Misses == 0 {
		return 0
	}
	return float64(r.ReplayL1Misses) / float64(r.L1Misses)
}

// String implements fmt.Stringer with the headline numbers.
func (r Results) String() string {
	return fmt.Sprintf("cycles=%d txns=%d tpkc=%.3f l1miss=%d replayMissRatio=%.4f maxLinkBW=%.3f violations=%d",
		r.Cycles, r.Transactions, r.TPKC(), r.L1Misses, r.ReplayMissRatio(), r.MaxLinkBandwidth, r.Violations)
}

// interval closes a Run* call: the totals now, less the totals the
// previous call ended with.
func (s *System) interval() Results {
	total := s.results()
	r := total.since(s.reported)
	s.reported = total
	return r
}

// since subtracts prev from every monotone counter of r.
func (r Results) since(prev Results) Results {
	r.Cycles -= prev.Cycles
	r.Transactions -= prev.Transactions
	r.OpsRetired -= prev.OpsRetired
	r.LoadsExecuted -= prev.LoadsExecuted
	r.SpecSquashes -= prev.SpecSquashes
	r.VerifySquashes -= prev.VerifySquashes
	r.MembarStalls -= prev.MembarStalls
	r.VCFullStalls -= prev.VCFullStalls
	r.WBFullStalls -= prev.WBFullStalls
	r.L1Hits -= prev.L1Hits
	r.L1Misses -= prev.L1Misses
	r.L2Hits -= prev.L2Hits
	r.L2Misses -= prev.L2Misses
	r.ReplayLoads -= prev.ReplayLoads
	r.ReplayL1Misses -= prev.ReplayL1Misses
	r.Writebacks -= prev.Writebacks
	r.TotalLinkBytes -= prev.TotalLinkBytes
	r.Informs -= prev.Informs
	r.OpenInforms -= prev.OpenInforms
	r.InformsProcessed -= prev.InformsProcessed
	r.Violations -= prev.Violations
	r.Checkpoints -= prev.Checkpoints
	r.Recoveries -= prev.Recoveries
	r.LogMessages -= prev.LogMessages
	return r
}

// results gathers whole-run metrics (since cycle 0).
func (s *System) results() Results {
	r := Results{
		Cycles:       uint64(s.kernel.Now()),
		Transactions: s.Transactions(),
		Violations:   s.violations.Count(),
	}
	for _, c := range s.cpus {
		st := c.Stats()
		r.OpsRetired += st.OpsRetired
		r.LoadsExecuted += st.LoadsExecuted
		r.SpecSquashes += st.SpecSquashes
		r.VerifySquashes += st.VerifySquashes
		r.MembarStalls += st.MembarStalls
		r.VCFullStalls += st.VCFullStalls
		r.WBFullStalls += st.WBFullStalls
	}
	for _, c := range s.ctrls {
		st := c.Stats()
		r.L1Hits += st.L1Hits
		r.L1Misses += st.L1Misses
		r.L2Hits += st.L2Hits
		r.L2Misses += st.L2Misses
		r.ReplayLoads += st.ReplayLoads
		r.ReplayL1Misses += st.ReplayL1Misses
		r.Writebacks += st.WritebacksDirty
	}
	links := s.torus.LinkStats()
	if s.bcast != nil {
		links = append(links, s.bcast.LinkStats()...)
	}
	maxLink := network.MaxLink(links)
	r.MaxLinkBandwidth = maxLink.MeanBandwidth()
	r.MaxLinkByClass = make(map[network.Class]float64)
	if maxLink.Observed > 0 {
		for _, cl := range network.Classes {
			r.MaxLinkByClass[cl] = float64(maxLink.ClassBytes(cl)) / float64(maxLink.Observed)
		}
	}
	for _, l := range links {
		r.TotalLinkBytes += l.Bytes
	}
	for _, c := range s.cet {
		st := c.Stats()
		r.Informs += st.Informs
		r.OpenInforms += st.OpenInforms
	}
	for _, m := range s.met {
		r.InformsProcessed += m.Stats().InformsProcessed
	}
	if s.snMgr != nil {
		st := s.snMgr.Stats()
		r.Checkpoints = st.CheckpointsTaken
		r.Recoveries = st.Recoveries
		r.LogMessages = st.LogMessages
	}
	return r
}

// ResultsSoFar gathers whole-run metrics (since cycle 0) without
// advancing the system or closing an interval — live introspection and
// chunked run drivers.
func (s *System) ResultsSoFar() Results { return s.results() }
