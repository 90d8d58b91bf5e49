package dvmc

import (
	"dvmc/internal/coherence"
	"dvmc/internal/core"
	"dvmc/internal/network"
	"dvmc/internal/proc"
	"dvmc/internal/safetynet"
	"dvmc/internal/telemetry"
)

// TelemetryConfig re-exports the telemetry configuration.
type TelemetryConfig = telemetry.Config

// TelemetryOn returns an enabled telemetry configuration with defaults
// (cycle sampling every telemetry.DefaultEvery cycles).
func TelemetryOn() TelemetryConfig { return telemetry.On() }

// TelemetrySnapshot reads every metric from the live components as of
// the current cycle, with the series the sampler has recorded (the
// -metrics-out flags and the live /metrics endpoint serialise this). Its
// events are the violation list, and its latency section is the
// detection System.inject concluded: one observation, the result's
// Latency under its DetectionKind, for a detected injection.
func (s *System) TelemetrySnapshot() *telemetry.Snapshot {
	snap := telemetry.TakeSnapshot(uint64(s.Now()), s.telemetryMetrics(), s.sampler)
	var kind string
	if s.injected.Detected {
		kind = s.injected.DetectionKind.String()
	}
	vs := s.Violations()
	snap.FoldViolations(len(vs), func(i int) telemetry.ViolationEvent {
		v := &vs[i]
		return telemetry.ViolationEvent{
			Invariant:   v.Kind.String(),
			Node:        int(v.Node),
			Addr:        uint64(v.Block),
			DetectCycle: uint64(v.Cycle),
			Detail:      v.Detail,
		}
	}, kind, uint64(s.injected.Latency))
	return snap
}

// classLabels are the label values for per-traffic-class vectors, in
// network.Class order.
var classLabels = []string{"coherence", "inform", "safetynet", "replay"}

// classOf maps label slots to network classes.
var classOf = []network.Class{network.ClassCoherence, network.ClassInform,
	network.ClassSafetyNet, network.ClassReplay}

// telemetryMetrics lists the system's metrics, each a read of the live
// component that keeps its value. Tracked metrics are what the sampler
// records: four counters as the run's work profile — ops retired,
// coherence transactions issued, link bytes and informs processed, one
// per layer, which dvmc-stat timeline draws as counter tracks — and the
// occupancy gauges. The sampler calls a tracked metric's read on every
// tick, so those reads must not allocate.
func (s *System) telemetryMetrics() []telemetry.Metric {
	cfg := s.cfg
	nodes := telemetry.NodeLabels(cfg.Nodes)
	const counter, gauge = telemetry.KindCounter, telemetry.KindGauge
	perNode := func(kind telemetry.Kind, name, help string, read func(i int) int64) telemetry.Metric {
		return telemetry.Metric{Name: name, Help: help, Kind: kind, Label: "node", LabelVals: nodes, Read: read}
	}
	scalar := func(kind telemetry.Kind, name, help string, read func() int64) telemetry.Metric {
		return telemetry.Metric{Name: name, Help: help, Kind: kind, Read: func(int) int64 { return read() }}
	}
	tracked := func(m telemetry.Metric) telemetry.Metric {
		m.Tracked = true
		return m
	}
	cpu := func(i int) proc.Stats { return s.cpus[i].Stats() }
	ctrl := func(i int) coherence.ControllerStats { return s.ctrls[i].Stats() }

	ms := []telemetry.Metric{
		// Core pipeline counters and occupancy gauges.
		tracked(perNode(counter, "proc.ops_retired", "operations retired", func(i int) int64 { return int64(cpu(i).OpsRetired) })),
		perNode(counter, "proc.transactions", "workload transactions committed", func(i int) int64 { return int64(cpu(i).Transactions) }),
		perNode(counter, "proc.spec_squashes", "load-order mis-speculation flushes", func(i int) int64 { return int64(cpu(i).SpecSquashes) }),
		perNode(counter, "proc.verify_squashes", "UO replay mismatch flushes", func(i int) int64 { return int64(cpu(i).VerifySquashes) }),
		perNode(counter, "proc.membar_stalls", "cycles stalled at membars", func(i int) int64 { return int64(cpu(i).MembarStalls) }),
		perNode(counter, "proc.vc_full_stalls", "stalls on a full verification cache", func(i int) int64 { return int64(cpu(i).VCFullStalls) }),
		perNode(counter, "proc.wb_full_stalls", "stalls on a full write buffer", func(i int) int64 { return int64(cpu(i).WBFullStalls) }),
		tracked(perNode(gauge, "proc.rob_occupancy", "reorder-buffer entries in flight", func(i int) int64 { return int64(s.cpus[i].ROBLen()) })),
		tracked(perNode(gauge, "proc.wb_occupancy", "write-buffer stores pending", func(i int) int64 { return int64(s.cpus[i].WBLen()) })),

		// Memory-system counters.
		perNode(counter, "cache.l1_hits", "L1 hits", func(i int) int64 { return int64(ctrl(i).L1Hits) }),
		perNode(counter, "cache.l1_misses", "L1 misses", func(i int) int64 { return int64(ctrl(i).L1Misses) }),
		perNode(counter, "cache.l2_hits", "L2 hits", func(i int) int64 { return int64(ctrl(i).L2Hits) }),
		perNode(counter, "cache.l2_misses", "L2 misses", func(i int) int64 { return int64(ctrl(i).L2Misses) }),
		perNode(counter, "cache.replay_loads", "loads issued by VC replay", func(i int) int64 { return int64(ctrl(i).ReplayLoads) }),
		perNode(counter, "cache.replay_l1_misses", "L1 misses on replay loads", func(i int) int64 { return int64(ctrl(i).ReplayL1Misses) }),
		perNode(counter, "cache.writebacks", "dirty writebacks", func(i int) int64 { return int64(ctrl(i).WritebacksDirty) }),
		tracked(perNode(counter, "cache.transactions_issued", "coherence transactions issued onto the interconnect", func(i int) int64 { return int64(ctrl(i).TransactionsIssued) })),

		// DVMC checker counters.
		scalar(counter, "checker.violations", "detected consistency violations", func() int64 { return int64(s.violations.Count()) }),

		// Interconnect byte counters, per traffic class (Figure 7's
		// breakdown, as a time series).
		tracked(telemetry.Metric{Name: "net.bytes", Help: "bytes carried, by traffic class", Kind: counter,
			Label: "class", LabelVals: classLabels, Read: func(i int) int64 {
				b := s.torus.ClassBytes(classOf[i])
				if s.bcast != nil {
					b += s.bcast.ClassBytes(classOf[i])
				}
				return int64(b)
			}}),
		tracked(scalar(counter, "net.bytes_total", "total bytes carried on all links", func() int64 {
			total := s.torus.TotalBytes()
			if s.bcast != nil {
				total += s.bcast.TotalBytes()
			}
			return int64(total)
		})),
	}

	// Table and queue occupancy of the checkers that are on.
	if cfg.DVMC.UniprocessorOrdering {
		ms = append(ms,
			tracked(perNode(gauge, "checker.vc_entries", "verification-cache words allocated", func(i int) int64 { return int64(s.uo[i].Entries()) })),
			perNode(gauge, "checker.vc_store_entries", "VC words tracking unperformed stores", func(i int) int64 { return int64(s.uo[i].StoreEntries()) }),
		)
	}
	if cfg.DVMC.CacheCoherence {
		cet := func(i int) core.CETStats { return s.cet[i].Stats() }
		met := func(i int) core.METStats { return s.met[i].Stats() }
		ms = append(ms,
			tracked(perNode(counter, "checker.informs", "Inform-Epochs sent to the MET", func(i int) int64 { return int64(cet(i).Informs) })),
			perNode(counter, "checker.open_informs", "Inform-Open-Epochs sent", func(i int) int64 { return int64(cet(i).OpenInforms) }),
			tracked(perNode(gauge, "checker.cet_open_epochs", "open epochs in the cache epoch table", func(i int) int64 { return int64(s.cet[i].OpenEpochs()) })),
			perNode(gauge, "checker.cet_slab_in_use", "occupied CET slab slots", func(i int) int64 { return int64(s.cet[i].SlabInUse()) }),
			tracked(perNode(gauge, "checker.cet_scrub_queue", "delayed informs queued for scrub", func(i int) int64 { return int64(s.cet[i].ScrubQueueLen()) })),
			tracked(perNode(gauge, "checker.met_queue_depth", "informs waiting in the MET priority queue", func(i int) int64 { return int64(s.met[i].QueueDepth()) })),
			perNode(gauge, "checker.met_entries", "memory epoch table entries", func(i int) int64 { return int64(s.met[i].Entries()) }),
			tracked(perNode(counter, "checker.informs_processed", "informs the MET has checked and folded in", func(i int) int64 { return int64(met(i).InformsProcessed) })),
			perNode(counter, "checker.met_queue_overflows", "MET queue overflows forcing early processing", func(i int) int64 { return int64(met(i).QueueOverflows) }),
		)
	}

	// SafetyNet checkpoint/log pressure.
	if cfg.SafetyNet {
		sn := func() safetynet.Stats { return s.snMgr.Stats() }
		ms = append(ms,
			scalar(counter, "sn.checkpoints", "coordinated checkpoints taken", func() int64 { return int64(sn().CheckpointsTaken) }),
			scalar(counter, "sn.recoveries", "rollback recoveries performed", func() int64 { return int64(sn().Recoveries) }),
			scalar(counter, "sn.log_messages", "write-log ownership messages sent", func() int64 { return int64(sn().LogMessages) }),
			tracked(scalar(counter, "sn.log_bytes", "write-log bytes on the wire", func() int64 { return int64(sn().LogBytes) })),
			tracked(scalar(gauge, "sn.live_checkpoints", "retained (unexpired) checkpoints", func() int64 { return int64(s.snMgr.LiveCount()) })),
		)
	}

	// Execution-trace recorder accounting.
	if s.rec != nil {
		ms = append(ms,
			scalar(counter, "trace.events", "execution-trace events recorded", func() int64 { return int64(s.rec.Stats().Events) }),
			scalar(counter, "trace.spills", "trace ring drains into the encoder", func() int64 { return int64(s.rec.Stats().Spills) }),
		)
	}
	return ms
}
