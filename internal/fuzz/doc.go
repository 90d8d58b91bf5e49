// Package fuzz is the randomized litmus-program fuzzer for the DVMC
// simulator: it generates random multithreaded memory-operation programs
// (explicit per-thread op lists, in contrast to internal/workload's
// statistical generators), runs them across the consistency-model ×
// coherence-protocol × fault matrix, and cross-checks three independent
// verdicts per run — the online DVMC checkers, the offline trace oracle
// (internal/oracle), and the injected-fault ground truth. Any
// disagreement (an escape the online checkers missed, or a false alarm
// on a clean run) is delta-debugged down to a 1-minimal reproducer and
// written to a corpus directory that a regression test replays.
//
// The pieces:
//
//   - Program / GenParams.Generate — seed-deterministic program
//     generation: tunable thread count, address-pool size and shape
//     (false-sharing pressure via multiple words per block), op mix
//     (loads, stores, RMWs, membars with random masks), Bits32 fractions,
//     and lengths long enough to stress 16-bit logical-time wraparound.
//   - Case / RunCase — one complete experiment (program + config + an
//     optional fault), run through the unchanged NewSystem/RunInjection
//     paths via workload.Custom, classified as agree-clean /
//     agree-detect / escape / false-alarm (plus not-applied, hang, and
//     crash for campaign bookkeeping).
//   - CampaignConfig / Run — the campaign driver. Run i's case is
//     CaseAt(cfg, i), a pure function of the configuration and the
//     index. A bounded worker pool spreads the independent simulations
//     across host cores; because every run depends on nothing but its
//     index, the classification table and corpus artifacts are
//     byte-identical across invocations and worker counts, and a
//     per-run recover wrapper turns a panicking simulation into a
//     "crash" classification instead of killing the campaign. RunRange
//     is the same step for one index range — the shard a fabric worker
//     executes — and Finalize the merge both callers share: reproducers
//     and the Summary.
//   - Minimize — delta debugging: drop threads, ddmin each thread's op
//     list, weaken membar masks, simplify ops, and canonicalize the
//     address set, re-running deterministically after every candidate
//     until the reproducer is 1-minimal.
//   - corpus.go — stable JSON serialization of cases, plus ReplayFile /
//     ReplayDir, which the regression test over testdata/corpus/ and
//     dvmc-fuzz replay share. ReplayFile takes the caller's observers
//     and returns the system it ran, so dvmc-fuzz replay -spans-out /
//     -metrics-out read the very execution replay checked.
//
// This package deliberately lives outside the dvmc-lint determinism
// allowlist: it drives the shared worker pool (internal/par), whose
// goroutines are banned inside the simulated machine. Determinism here is
// preserved architecturally instead — workers only ever write disjoint
// slots of the result table, and every simulation they run is itself a
// pure function of its seed.
package fuzz
