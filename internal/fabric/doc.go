// Package fabric is the distributed campaign fabric: a coordinator and
// workers that shard a campaign's case space into leases over HTTP+JSON
// and merge the shard results back into exactly the artifacts a serial
// single-process run produces.
//
// The determinism argument has three legs, each proved at a lower
// layer and composed here:
//
//  1. Every case is a pure function of (job spec, case index) —
//     fuzz.CaseAt, and for the Section 6.1 matrix the Inject(i) of
//     dvmc.ErrorDetection's figure, the per-index function dvmc.Evaluate
//     runs too; both are judged runs (dvmc.RunJudged). The spec becomes
//     a case space once, the one place a job's kind is decided
//     (JobSpec.space; the experiment space derives the figure's
//     injections once). A lease is therefore only a shard, and a
//     shard's result does not depend on which worker ran it, when, or
//     how many times (re-running a stolen lease reproduces the same
//     bytes). Because a
//     case is derivable, a result carries outcomes, not cases: a fuzz
//     shard's verdicts (Verdicts: the index, result and minimized
//     reproducer), which the coordinator turns back into records by
//     re-deriving every case with fuzz.CaseAt, and an experiment
//     shard's injection results, each of which must report the
//     injection the coordinator derives for its index, judged.
//  2. Shards partition the index space into contiguous ranges, and the
//     coordinator accepts only a result with exactly one outcome per
//     index of its shard, in index order. Joining the accepted results
//     in shard order is then the dense table whatever order they
//     arrived in; metrics merge with the order-independent
//     telemetry.MergeSnapshots.
//  3. All artifact writes (corpus files, summaries, tables) happen on
//     the coordinator once every shard is done, in ascending index
//     order, through the same code the serial drivers use
//     (fuzz.Finalize; the Section 6.1 figure's View, which is the view
//     Evaluate renders).
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
