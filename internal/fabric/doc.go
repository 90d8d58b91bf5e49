// Package fabric is the distributed campaign fabric: a coordinator and
// workers that shard a campaign's case space into leases over HTTP+JSON
// and merge the shard results back into exactly the artifacts a serial
// single-process run produces.
//
// The determinism argument has three legs, each proved at a lower
// layer and composed here:
//
//  1. Every case is a pure function of (campaign seed, case index) —
//     fuzz.DeriveCase and dvmc.DeriveCampaignInjections — or, for a
//     fuzz campaign's breeding generations (it has Generations >= 0),
//     of those and the records of the generations before it, which is
//     why shards never straddle a generation, a generation is leased
//     only once the earlier ones are complete, and its seed pool rides
//     in the lease. A shard's records therefore do not depend on which
//     worker ran it, when, or how many times (re-running a stolen lease
//     reproduces the same bytes).
//  2. Shards are slot-disjoint index ranges, so merging is
//     order-independent: dvmc.Merge for injection campaigns,
//     slot-placement for fuzz records, and the canonical
//     telemetry.MergeSnapshots for metrics.
//  3. All artifact writes (corpus files, summaries, tables) happen on
//     the coordinator after every slot is filled, in ascending index
//     order, through the same finalize code the serial drivers use
//     (fuzz.Finalize, dvmc.AssembleErrorDetectionTable).
//
// Consequently the merged outputs are byte-identical to a serial run at
// any worker count, join/leave order, or crash/retry schedule.
//
// The coordinator journals progress to an append-only checkpoint file
// (one CRC-framed record per line). If the coordinator crashes, a new
// one resumes from the checkpoint: completed shards are not re-run, and
// the final artifacts still match the serial bytes.
//
// This package deliberately sits outside the dvmc-lint determinism
// allowlist: goroutines, wall-clock time, and network I/O live here.
// The nondeterminism stops at the lease protocol — the lease state
// machine itself (lease.go) takes an injected logical clock and is
// unit-tested as a pure function, and everything that touches result
// bytes is deterministic by construction.
package fabric
