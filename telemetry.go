package dvmc

import (
	"dvmc/internal/core"
	"dvmc/internal/network"
	"dvmc/internal/telemetry"
)

// TelemetryConfig re-exports the telemetry configuration.
type TelemetryConfig = telemetry.Config

// TelemetryOn returns an enabled telemetry configuration with defaults
// (cycle sampling every telemetry.DefaultEvery cycles).
func TelemetryOn() TelemetryConfig { return telemetry.On() }

// Telemetry returns the system's metric registry. NewSystem builds it
// when Config.Telemetry.Enabled schedules the cycle sampler; otherwise
// the first call does. It holds no fact of its own — its probes read the
// live components — so a registry built late reads what an early one
// would have.
func (s *System) Telemetry() *telemetry.Registry {
	if s.reg == nil {
		s.buildTelemetry()
	}
	return s.reg
}

// TelemetrySnapshot refreshes all probes and captures the registry as
// of the current cycle (the -metrics-out flags and the live /metrics
// endpoint serialise this). Its events and latency sections are folded
// from the violation list and what RunInjectionSystem attributed at
// detection.
func (s *System) TelemetrySnapshot() *telemetry.Snapshot {
	snap := s.Telemetry().Snapshot(uint64(s.Now()))
	vs := s.Violations()
	at := telemetry.Attribution{InjectCycle: uint64(s.attributedFrom), Violations: s.attributedViolations}
	if s.replayCaughtAt != 0 {
		at.Inline, at.InlineLatency = core.UOMismatch.String(), uint64(s.replayCaughtAt-s.attributedFrom)
	}
	snap.FoldViolations(len(vs), func(i int) telemetry.ViolationEvent {
		v := &vs[i]
		return telemetry.ViolationEvent{
			Invariant:   v.Kind.String(),
			Node:        int(v.Node),
			Addr:        uint64(v.Block),
			DetectCycle: uint64(v.Cycle),
			Detail:      v.Detail,
		}
	}, at)
	return snap
}

// classLabels are the label values for per-traffic-class vectors, in
// network.Class order.
var classLabels = []string{"coherence", "inform", "safetynet", "replay"}

// classOf maps label slots back to network classes.
var classOf = []network.Class{network.ClassCoherence, network.ClassInform,
	network.ClassSafetyNet, network.ClassReplay}

// buildTelemetry registers the system's metrics, the probes that
// refresh them from the live structures, and the tracked time series.
// It runs once every component exists: at the end of NewSystem when the
// sampler is scheduled, else at the first Telemetry call.
//
// Probe discipline: probes run on every sampling tick and must not
// allocate — they read existing counters/depth accessors and perform
// plain slice writes into the registry (enforced by the
// SteadyStateAllocFree assertions in telemetry_test.go).
func (s *System) buildTelemetry() {
	cfg := s.cfg
	s.reg = telemetry.NewRegistry()
	reg := s.reg
	nodes := telemetry.NodeLabels(cfg.Nodes)

	// Core pipeline counters and occupancy gauges. Four counters are
	// tracked as the run's work profile — ops retired, coherence
	// transactions issued, link bytes and informs processed, one per
	// layer — which dvmc-stat timeline draws as counter tracks.
	ops := reg.Track(reg.CounterVec("proc.ops_retired", "operations retired", "node", nodes))
	txns := reg.CounterVec("proc.transactions", "workload transactions committed", "node", nodes)
	spec := reg.CounterVec("proc.spec_squashes", "load-order mis-speculation flushes", "node", nodes)
	verify := reg.CounterVec("proc.verify_squashes", "UO replay mismatch flushes", "node", nodes)
	membar := reg.CounterVec("proc.membar_stalls", "cycles stalled at membars", "node", nodes)
	vcFull := reg.CounterVec("proc.vc_full_stalls", "stalls on a full verification cache", "node", nodes)
	wbFull := reg.CounterVec("proc.wb_full_stalls", "stalls on a full write buffer", "node", nodes)
	rob := reg.Track(reg.GaugeVec("proc.rob_occupancy", "reorder-buffer entries in flight", "node", nodes))
	wb := reg.Track(reg.GaugeVec("proc.wb_occupancy", "write-buffer stores pending", "node", nodes))
	reg.AddProbe(func() {
		for i, c := range s.cpus {
			st := c.Stats()
			ops.Set(i, int64(st.OpsRetired))
			txns.Set(i, int64(st.Transactions))
			spec.Set(i, int64(st.SpecSquashes))
			verify.Set(i, int64(st.VerifySquashes))
			membar.Set(i, int64(st.MembarStalls))
			vcFull.Set(i, int64(st.VCFullStalls))
			wbFull.Set(i, int64(st.WBFullStalls))
			rob.Set(i, int64(c.ROBLen()))
			wb.Set(i, int64(c.WBLen()))
		}
	})

	// Memory-system counters.
	l1h := reg.CounterVec("cache.l1_hits", "L1 hits", "node", nodes)
	l1m := reg.CounterVec("cache.l1_misses", "L1 misses", "node", nodes)
	l2h := reg.CounterVec("cache.l2_hits", "L2 hits", "node", nodes)
	l2m := reg.CounterVec("cache.l2_misses", "L2 misses", "node", nodes)
	rply := reg.CounterVec("cache.replay_loads", "loads issued by VC replay", "node", nodes)
	rplyMiss := reg.CounterVec("cache.replay_l1_misses", "L1 misses on replay loads", "node", nodes)
	wbacks := reg.CounterVec("cache.writebacks", "dirty writebacks", "node", nodes)
	issued := reg.Track(reg.CounterVec("cache.transactions_issued", "coherence transactions issued onto the interconnect", "node", nodes))
	reg.AddProbe(func() {
		for i, c := range s.ctrls {
			st := c.Stats()
			issued.Set(i, int64(st.TransactionsIssued))
			l1h.Set(i, int64(st.L1Hits))
			l1m.Set(i, int64(st.L1Misses))
			l2h.Set(i, int64(st.L2Hits))
			l2m.Set(i, int64(st.L2Misses))
			rply.Set(i, int64(st.ReplayLoads))
			rplyMiss.Set(i, int64(st.ReplayL1Misses))
			wbacks.Set(i, int64(st.WritebacksDirty))
		}
	})

	// DVMC checker counters and table/queue occupancy.
	viol := reg.Counter("checker.violations", "detected consistency violations")
	reg.AddProbe(func() { viol.Set(0, int64(s.violations.Count())) })
	if cfg.DVMC.UniprocessorOrdering {
		vcEntries := reg.Track(reg.GaugeVec("checker.vc_entries", "verification-cache words allocated", "node", nodes))
		vcStores := reg.GaugeVec("checker.vc_store_entries", "VC words tracking unperformed stores", "node", nodes)
		reg.AddProbe(func() {
			for i, u := range s.uo {
				if u == nil {
					continue
				}
				vcEntries.Set(i, int64(u.Entries()))
				vcStores.Set(i, int64(u.StoreEntries()))
			}
		})
	}
	if cfg.DVMC.CacheCoherence {
		informs := reg.Track(reg.CounterVec("checker.informs", "Inform-Epochs sent to the MET", "node", nodes))
		openInf := reg.CounterVec("checker.open_informs", "Inform-Open-Epochs sent", "node", nodes)
		cetOpen := reg.Track(reg.GaugeVec("checker.cet_open_epochs", "open epochs in the cache epoch table", "node", nodes))
		cetSlab := reg.GaugeVec("checker.cet_slab_in_use", "occupied CET slab slots", "node", nodes)
		cetScrub := reg.Track(reg.GaugeVec("checker.cet_scrub_queue", "delayed informs queued for scrub", "node", nodes))
		metQ := reg.Track(reg.GaugeVec("checker.met_queue_depth", "informs waiting in the MET priority queue", "node", nodes))
		metEnt := reg.GaugeVec("checker.met_entries", "memory epoch table entries", "node", nodes)
		metProc := reg.Track(reg.CounterVec("checker.informs_processed", "informs the MET has checked and folded in", "node", nodes))
		metOver := reg.CounterVec("checker.met_queue_overflows", "MET queue overflows forcing early processing", "node", nodes)
		reg.AddProbe(func() {
			for i, c := range s.cet {
				st := c.Stats()
				informs.Set(i, int64(st.Informs))
				openInf.Set(i, int64(st.OpenInforms))
				cetOpen.Set(i, int64(c.OpenEpochs()))
				cetSlab.Set(i, int64(c.SlabInUse()))
				cetScrub.Set(i, int64(c.ScrubQueueLen()))
			}
			for i, m := range s.met {
				metQ.Set(i, int64(m.QueueDepth()))
				metEnt.Set(i, int64(m.Entries()))
				st := m.Stats()
				metProc.Set(i, int64(st.InformsProcessed))
				metOver.Set(i, int64(st.QueueOverflows))
			}
		})
	}

	// Interconnect byte counters, per traffic class (Figure 7's
	// breakdown, as a time series).
	netBytes := reg.Track(reg.CounterVec("net.bytes", "bytes carried, by traffic class", "class", classLabels))
	netTotal := reg.Track(reg.Counter("net.bytes_total", "total bytes carried on all links"))
	reg.AddProbe(func() {
		for i, cl := range classOf {
			b := s.torus.ClassBytes(cl)
			if s.bcast != nil {
				b += s.bcast.ClassBytes(cl)
			}
			netBytes.Set(i, int64(b))
		}
		total := s.torus.TotalBytes()
		if s.bcast != nil {
			total += s.bcast.TotalBytes()
		}
		netTotal.Set(0, int64(total))
	})

	// SafetyNet checkpoint/log pressure.
	if cfg.SafetyNet {
		cps := reg.Counter("sn.checkpoints", "coordinated checkpoints taken")
		recov := reg.Counter("sn.recoveries", "rollback recoveries performed")
		logMsgs := reg.Counter("sn.log_messages", "write-log ownership messages sent")
		logBytes := reg.Track(reg.Counter("sn.log_bytes", "write-log bytes on the wire"))
		live := reg.Track(reg.Gauge("sn.live_checkpoints", "retained (unexpired) checkpoints"))
		reg.AddProbe(func() {
			st := s.snMgr.Stats()
			cps.Set(0, int64(st.CheckpointsTaken))
			recov.Set(0, int64(st.Recoveries))
			logMsgs.Set(0, int64(st.LogMessages))
			logBytes.Set(0, int64(st.LogBytes))
			live.Set(0, int64(s.snMgr.LiveCount()))
		})
	}

	// Execution-trace recorder accounting.
	if s.rec != nil {
		trEvents := reg.Counter("trace.events", "execution-trace events recorded")
		trSpills := reg.Counter("trace.spills", "trace ring drains into the encoder")
		reg.AddProbe(func() {
			st := s.rec.Stats()
			trEvents.Set(0, int64(st.Events))
			trSpills.Set(0, int64(st.Spills))
		})
	}
}
