// Package analysis is dvmc-lint: a dependency-free static-analysis suite
// that enforces the simulator's determinism contract and the DVMC
// invariants at compile time. It is built on the standard library alone
// (go/parser, go/types, go/importer with source-mode stdlib resolution)
// so go.mod stays empty; no golang.org/x/tools is required.
//
// # Why a custom linter
//
// PR 1 made byte-identical traces per seed a load-bearing contract: the
// differential harness replays recorded traces through an independent
// offline oracle, and fault-injection experiments compare runs that
// differ only in the injected fault. Any nondeterminism — a map
// iteration whose order leaks into message timing, a wall-clock read, a
// goroutine — silently invalidates every one of those comparisons. The
// type system cannot express "this package must replay identically", so
// dvmc-lint does.
//
// # The deterministic-package allowlist
//
// The determinism contract applies to the packages the simulated machine
// and its checkers are made of, listed in DeterministicPkgs:
//
//	internal/sim        discrete-event kernel, seeded PRNG
//	internal/core       DVMC checkers (VC, reordering, CET/MET)
//	internal/coherence  directory and snooping protocol engines
//	internal/proc       processor model, LSQ, write buffer
//	internal/mem        memory, ECC
//	internal/network    torus and broadcast interconnects
//	internal/trace      execution-trace recorder and codec
//	internal/frame      sealed-stream container under the trace and span codecs
//	internal/safetynet  checkpoint/recovery
//	internal/telemetry  metrics registry and cycle-driven sampler
//	internal/span       causal span recorder and timeline codec
//	internal/oracle/stream  the trace oracle: decides escape vs agree
//
// Code outside the allowlist is exempt from maprange and detsource:
// cmd/dvmc-bench legitimately calls time.Now to measure host throughput,
// the CLIs read flags and files, and the top-level experiment harness
// aggregates results. The time16cmp and exhaustive analyzers apply
// module-wide, because a wraparound-unsafe timestamp comparison or a
// silently non-exhaustive payload switch is a bug wherever it lives.
//
// # Analyzers
//
//   - maprange: flags `for … range` over map-typed values in
//     deterministic packages, unless the loop feeds the collect-and-sort
//     idiom or carries a //dvmc:orderinsensitive annotation (below).
//   - detsource: bans time.Now, math/rand imports, os.Getenv/LookupEnv/
//     Environ, go statements, and select statements in deterministic
//     packages, pointing offenders at sim.Rand and the event kernel.
//   - time16cmp: forbids raw </>/<=/>= on core.Time16 outside
//     internal/core/ltime.go; 16-bit logical timestamps wrap, so ordering
//     them requires Reconstruct against a local reference (or
//     core.Before).
//   - exhaustive: requires value switches over enum-like constant sets
//     and type switches over the coherence Msg* payload family to cover
//     every declared variant or carry an explicit default clause (which
//     should panic or record a violation, never silently ignore).
//   - allocfree: proves the //dvmc:hotpath set heap-allocation-free —
//     escaping composites, make/new/append growth, interface boxing,
//     capturing closures, string concat/conversions, and fmt calls are
//     findings, and the hot set is closed under static calls (a hot
//     function may only call hot, provably-clean, or //dvmc:alloc-ok
//     annotated code). A per-function escape pass keeps provably-local
//     allocations and panic-only paths silent.
//   - confine: inside the allowlist, forbids concurrency outright (go,
//     select, channel types/ops, and the sync and sync/atomic imports);
//     outside it, checks the //dvmc:guardedby contract over annotated
//     struct fields with a positional Lock/Unlock discipline.
//   - pooldiscipline: every pool acquire (sim.FreeList's Get, on
//     whatever element type, or a wrapper that returns what it got, such
//     as InformPool.message) must reach its release or an ownership
//     handoff on all control-flow paths to a function exit, walked over
//     a per-function CFG; a leaked pooled object silently refills the
//     pool from the heap and kills the steady-state zero-alloc claim.
//
// # Annotation vocabulary
//
// All directives are line comments placed directly above (or on) the
// annotated declaration or statement. Every reason text is mandatory
// and is a reviewed assertion, not an escape hatch — it should say why
// the claim holds, so a reviewer can check it. An annotation without a
// reason is itself a diagnostic.
//
//	//dvmc:orderinsensitive <reason>
//
// On a map-range statement: its observable effect does not depend on
// iteration order (commutative fold, building another map, or results
// sorted before use in a way the analyzer cannot see):
//
//	//dvmc:orderinsensitive folds into a commutative sum
//	for _, v := range m.counts {
//		total += v
//	}
//
//	//dvmc:hotpath
//
// On a function declaration: the function is part of the steady-state
// hot set the AllocsPerRun tests pin to zero allocations; allocfree
// proves the property over every statement. Takes no reason — the mark
// itself is the claim.
//
//	//dvmc:alloc-ok <reason>
//
// On a statement inside a hot function: this allocation is acceptable —
// a cold fallback (pool refill, violation reporting), or an append whose
// capacity amortizes to steady-state zero (retained scratch buffers,
// freelists).
//
//	//dvmc:guardedby <lock>
//
// On a struct field: the field may only be accessed while the named
// sibling mutex field is held. On a function: its callers hold the lock
// (under-lock helpers, and constructors running before the value is
// shared). The <lock> word is the guard's field name; confine validates
// it names a real sibling field.
//
// # Running
//
//	go run ./cmd/dvmc-lint ./...
//
// prints findings as file:line:col: [analyzer] message and exits 1 if
// there are any, 2 on load/type-check failure; -json emits the findings
// as a machine-readable array instead ({file,line,col,analyzer,msg,
// reason}), which CI maps to inline annotations through a GitHub
// problem matcher. CI runs it as a required job next to build and test.
package analysis
