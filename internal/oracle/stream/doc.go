// Package stream is the offline consistency oracle the product runs:
// `dvmc-stat check`, every fuzz case and every farm worker get their
// verdict from it. It judges a trace one event at a time — from a live
// simulation's sink, a pipe, or a file — on the feeding goroutine, keeps
// per-processor state bounded by what is in flight and R3's history of
// the distinct (word, value) pairs written, and reports byte for byte
// what internal/oracle's batch Check reports over the same events. That
// batch checker is the reference the tests compare against; see its
// package comment for the rules R1–R5 and the tolerances each one needs.
// Judging events incrementally is the form QED (Ravi et al., arXiv
// 2404.03113) and Roy et al.'s polynomial-time checker argue for.
//
// # What is kept
//
// Per processor, exactly what the reference keeps, in bounded form:
//
//   - the committed-but-unperformed operations, as a slice ascending by
//     sequence number (the reference's map, walked in its sorted-key
//     order) — the frontier R2 scans and R5 reads the committed value from;
//   - the performed sequence numbers, as a coalescing interval set (the
//     reference's map[uint64]bool; one interval per recovery epoch on a
//     legal trace) — what R4 tells a double perform from a perform
//     without a commit by;
//   - the R1 reorder window of performed operations, pruned by the
//     reference's frontier rule after every perform.
//
// Per (word, value) pair, for R3: whether a store has performed it
// (writers), whether a recovery marker legitimized it (recovered), and
// the loads that bound it before either happened (pending).
//
// On a legal trace the per-processor state and pending do not grow with
// trace length, but writers and recovered do: each holds one entry per
// distinct (word, value) pair a store performed or a recovery folded, so
// a workload that keeps writing new values grows them with every store.
// A faulty trace also grows the rest by its anomaly count: a lost store
// pins one frontier entry, an unwritten load value pins one pending
// query.
//
// # Why R3 defers
//
// The reference makes two passes: the first collects every value any
// store performs in the whole trace, so that same-cycle callback
// interleavings cannot flag a load racing its writer. One pass cannot
// know the future, so a load that binds a value nobody has written *yet*
// opens a query instead of a finding. A later store performing that
// value to that word closes it silently; a query still open when the
// stream ends is the finding. Recovery folds differ on purpose: the
// reference adds a rolled-back node's pending committed store values to
// its writer sets when its second pass reaches the marker, so they
// legitimize later loads only — here they go into recovered, which passes
// new loads but closes no open query.
//
// # Why the report equals the reference's
//
// Every other rule is decided on the spot from the same per-node state in
// the same order the reference runs them on an event — out-of-range node,
// structural, store value, the ascending overtaken scan, the reorder
// window scan — so appending findings as they are found is the
// reference's violation order. R3 is the last rule the reference runs on
// an event, so Finish places each end-of-stream R3 finding after
// everything found at or before its event's stream index and before
// everything found later. Stats are the same counters incremented at the
// same points. The contract covers malformed traces too: both engines
// judge an event for an out-of-range processor against node 0. The only
// shared code is the ordering relation itself (oracle.OrderedPair) —
// deliberately, since the contract is over everything downstream of it.
//
// # Determinism
//
// The package is on the dvmc-lint determinism allowlist: no goroutine,
// channel, lock, atomic, wall clock or unordered map walk, so the report
// is a pure function of the event stream. A Checker is not safe for
// concurrent use; its accessors (EventsFed, FrontierDepth, MaxFrontier,
// PendingValueQueries) are read by the goroutine that feeds it. The
// package publishes no metric and imports nothing of the simulator's
// telemetry: a caller that wants gauges (dvmc-stat check -metrics-out)
// builds them from those accessors.
package stream
