package dvmc

import (
	"fmt"
	"strings"

	"dvmc/internal/coherence"
	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/proc"
	"dvmc/internal/sim"
)

// FaultKind enumerates the error classes of the paper's Section 6.1
// campaign: "data and address bit flips; dropped, reordered, mis-routed,
// and duplicated messages; and reorderings and incorrect forwarding in
// the LSQ and write buffer", injected into the LSQ, write buffer,
// caches, interconnect, and memory/cache controllers.
type FaultKind uint8

// Fault kinds.
const (
	// Interconnect faults.
	FaultMsgDrop FaultKind = iota + 1
	FaultMsgDuplicate
	FaultMsgMisroute
	FaultMsgReorder
	FaultMsgDataFlip     // data bit flip in a block-bearing message
	FaultMsgStaleDup     // duplicate replayed a full fault window late
	FaultMsgReorderBurst // burst of messages captured and released in reverse order
	// Storage faults.
	FaultCacheDataFlip
	FaultMemoryDataFlip
	// Write-buffer faults.
	FaultWBReorder
	FaultWBDrop
	FaultWBCorrupt
	// LSQ faults.
	FaultLSQValue
	FaultLSQForward
	// Controller-logic faults.
	FaultPermissionDrop
	FaultSilentWrite
	FaultCtrlStateCorrupt // MOSI state bits of a resident line flipped
	// Logical-time fault.
	FaultTimeSkew // per-node clock skew attacking the Time16 wraparound scrubber
	// BER fault.
	FaultNestedRecovery // a second rollback before any post-recovery checkpoint

	numFaultKinds
)

// evidence is what counts as detecting a fault kind.
type evidence uint8

const (
	// evidenceCheckers: a checker violation or an ECC correction after
	// the injection. Benign UO mismatches (load-order races) occur in
	// fault-free runs too, so they attribute detection only under
	// evidenceLSQ.
	evidenceCheckers evidence = iota
	// evidenceLSQ attributes precisely: the corrupted load itself must
	// fail verification (benign mis-speculation mismatches on other loads
	// do not count) or be squashed, or some checker must fire.
	evidenceLSQ
	// evidenceNone: a legal double rollback injects no architectural
	// error, so there is nothing to "detect": post-recovery checker noise
	// is a false alarm (the differential verdict classifies it), never a
	// detection.
	evidenceNone
)

// undetected is how an applied fault that no evidence caught within the
// budget is classed. Every row states one; the zero value is not a
// policy.
type undetected uint8

const (
	// escape: never maskable — an undetected run is a false negative.
	escape undetected = iota + 1
	// maskedIfDormant: masked only while the row's fired probe says the
	// armed fault never took effect; a fired fault is an escape.
	maskedIfDormant
	// masked: the class can be consumed without architectural effect
	// within the budget; an effect the online checkers missed still
	// reaches the offline oracle, which the differential verdict turns
	// into an escape.
	masked
)

// param is one sized parameter of a kind: def is what an Injection's
// zero Window or Magnitude means, and base + [0, span) is the range the
// fuzzer draws it from (span 0: it draws nothing and leaves the default).
// Kinds that do not read the parameter leave it zero.
type param struct{ def, base, span uint64 }

func (p param) draw(rng *sim.Rand) uint64 {
	if p.span == 0 {
		return 0
	}
	return p.base + rng.Uint64n(p.span)
}

// faultKind is one row of faultKinds: everything the injection engine
// and the fuzzer know about one kind.
type faultKind struct {
	// name is the kind's String: the corpus, case-JSON and -kinds
	// vocabulary.
	name string
	// window and magnitude give Injection.Window and Injection.Magnitude
	// their default and their fuzzing range.
	window, magnitude param
	// needsSafetyNet marks a kind that cannot be applied without
	// checkpointing; the fuzzer turns SafetyNet on for its cases.
	needsSafetyNet bool
	// arm places the fault on node n of the running system and reports
	// whether a target existed (a cache flip needs a resident block, a WB
	// fault a buffered store, ...). inj carries the effective window and
	// magnitude.
	arm func(s *System, n int, inj Injection, rng *sim.Rand) bool
	// fired, where the component can tell, reports whether the armed
	// fault took architectural effect and when; at is 0 when the
	// component does not record when, and the arming cycle stands. A nil
	// probe means the fault takes effect as it is armed.
	fired func(s *System, n int) (at sim.Cycle, ok bool)
	// evidence is what counts as detection.
	evidence evidence
	// undetected classes a run nothing detected; the comment on each row
	// is the doctrine behind its choice.
	undetected undetected
}

// faultKinds is the one table of fault kinds, indexed by FaultKind (row
// 0 stays empty: kinds start at 1 so that a zero Injection is
// recognisably a hole). What a kind is — name, parameters, how it is
// armed, what counts as detecting it and how an undetected run is classed
// — is its row here and nowhere else: a new kind is a constant above, a
// row, the component hook its arm calls, and a corpus reproducer.
var faultKinds = [numFaultKinds]faultKind{
	FaultMsgDrop: {
		name: "msg-drop",
		// Dropping an Inform only degrades the checker; drop protocol
		// traffic so the error is architectural.
		arm:   armMsg(network.FaultDrop, true),
		fired: msgFaultFired,
		// A fired drop is never maskable — it destroyed a real coherence
		// message. But the hook arms and then waits for eligible traffic;
		// if none passes within the budget — a quiet node, or an
		// injection cycle past the program's drain — nothing was dropped
		// and the fault is masked, the same armed-but-dormant semantics
		// the LSQ and write-buffer classes use. (Found by the coverage
		// campaign: empty-traffic cases were misclassified as escapes.)
		undetected: maskedIfDormant,
	},
	FaultMsgDuplicate: {
		name:  "msg-duplicate",
		arm:   armMsg(network.FaultDuplicate, true),
		fired: msgFaultFired,
		// Control messages are absorbed idempotently when no matching
		// transaction exists; the fault left no architectural trace.
		undetected: masked,
	},
	FaultMsgMisroute: {
		name:       "msg-misroute",
		arm:        armMsg(network.FaultMisroute, true),
		fired:      msgFaultFired,
		undetected: masked, // absorbed idempotently, as msg-duplicate
	},
	FaultMsgReorder: {
		name:       "msg-reorder",
		window:     param{def: 64}, // how long the victim is held back
		arm:        armMsg(network.FaultDelay, true),
		fired:      msgFaultFired,
		undetected: masked, // absorbed idempotently, as msg-duplicate
	},
	FaultMsgDataFlip: {
		name:  "msg-data-flip",
		arm:   armMsg(network.FaultCorrupt, false),
		fired: msgFaultFired,
		// The armed-but-dormant rule of msg-drop; and a fired flip whose
		// word is never architecturally consumed within the budget is
		// latent — the in-flight corruption entered a cache line but no
		// load observed it, the same semantics as the cache/memory flip
		// classes. A consumed corrupted value is caught online by the
		// data-propagation check or offline by the oracle's value check,
		// which the differential verdict turns into an escape.
		undetected: masked,
	},
	FaultMsgStaleDup: {
		name: "msg-stale-dup",
		// The default replay delay is long enough for the original
		// transaction to retire.
		window:     param{def: 1500, base: 200, span: 2000},
		arm:        armMsg(network.FaultDupStale, true),
		fired:      msgFaultFired,
		undetected: masked, // a stale replay is absorbed idempotently, as msg-duplicate
	},
	FaultMsgReorderBurst: {
		name:       "msg-reorder-burst",
		window:     param{def: 400, base: 100, span: 600}, // release deadline if the burst never fills
		magnitude:  param{def: 4, base: 2, span: 6},       // burst length
		arm:        armMsgBurst,
		fired:      msgFaultFired,
		undetected: masked, // a reversed burst is absorbed idempotently, as msg-duplicate
	},
	FaultCacheDataFlip: {
		name: "cache-data-flip",
		arm: func(s *System, n int, _ Injection, rng *sim.Rand) bool {
			b, ok := pickBlock(s.ctrls[n].ResidentBlocks(64), rng)
			return ok && s.ctrls[n].CorruptCacheBit(b, rng.Intn(mem.BlockBytes*8))
		},
		// Line ECC is always on and corrects the flip at the line's first
		// access (a read, a partial write or a writeback), which ends the
		// run as detected; undetected means the line was never accessed
		// within the budget, and that access will correct it.
		undetected: masked,
	},
	FaultMemoryDataFlip: {
		name: "memory-data-flip",
		arm: func(s *System, n int, _ Injection, rng *sim.Rand) bool {
			memory := s.homes[n].Memory()
			b, ok := pickBlock(memory.SampleBlocks(64), rng)
			return ok && memory.CorruptBit(b, rng.Intn(mem.BlockBytes*8))
		},
		undetected: masked, // never consumed within the budget, as cache-data-flip
	},
	FaultWBReorder: {
		name: "wb-reorder",
		arm: func(s *System, n int, _ Injection, _ *sim.Rand) bool {
			wb, ok := s.cpus[n].WriteBuffer().(*proc.InOrderWB)
			if !ok || wb.Len() < 2 {
				return false
			}
			wb.InjectReorder()
			return true
		},
		// A fired reorder swapped two real writebacks on their way to
		// memory.
		undetected: escape,
	},
	FaultWBDrop: {
		name: "wb-drop",
		arm: func(s *System, n int, _ Injection, _ *sim.Rand) bool {
			wb, ok := s.cpus[n].WriteBuffer().(wbFaulter)
			if ok {
				wb.InjectDropNext()
			}
			return ok
		},
		fired: wbFaultFired,
		// Masked only if the armed fault never fired: the program drained
		// no further eligible store within the observation window, so the
		// fault left no architectural trace. A fired fault corrupted or
		// dropped a value on its way to the cache — the VC's per-store
		// value comparison (and the drain check for dropped stores)
		// detects those online, so an undetected fired fault is a genuine
		// escape, not a masking. (The old optimistic heuristic called
		// every undetected WB fault masked and was contradicted by the
		// offline oracle whenever the corrupt value actually performed.)
		undetected: maskedIfDormant,
	},
	FaultWBCorrupt: {
		name: "wb-corrupt",
		arm: func(s *System, n int, _ Injection, _ *sim.Rand) bool {
			wb, ok := s.cpus[n].WriteBuffer().(*proc.InOrderWB)
			if ok {
				wb.InjectCorruptNext()
			}
			return ok
		},
		fired:      wbFaultFired,
		undetected: maskedIfDormant, // as wb-drop
	},
	FaultLSQValue: {
		name: "lsq-value-flip",
		arm: func(s *System, n int, _ Injection, _ *sim.Rand) bool {
			s.cpus[n].InjectLoadValueFault()
			return true
		},
		fired:    lsqFaultFired,
		evidence: evidenceLSQ,
		// Armed but never triggered within the budget. (A corrupted load
		// erased by a mis-speculation flush counts as evidence, and the
		// engine classes it masked there.)
		undetected: maskedIfDormant,
	},
	FaultLSQForward: {
		name: "lsq-bad-forward",
		arm: func(s *System, n int, _ Injection, _ *sim.Rand) bool {
			s.cpus[n].InjectForwardFault()
			return true
		},
		fired:      lsqFaultFired,
		evidence:   evidenceLSQ,
		undetected: maskedIfDormant, // as lsq-value-flip
	},
	FaultPermissionDrop: {
		name: "ctrl-permission-drop",
		arm: func(s *System, n int, _ Injection, _ *sim.Rand) bool {
			for _, b := range s.ctrls[n].ResidentBlocks(64) {
				if s.ctrls[n].DropPermissionFault(b) {
					return true
				}
			}
			return false
		},
		// Dropping a clean copy is architecturally an eviction — the next
		// access misses and refetches the same value, so nothing ever
		// differs. Dropping a dirty copy loses an update, but the loss is
		// observable only when a later access reads the stale home value:
		// the MET's data-propagation check catches that online, and the
		// oracle's value check catches it offline, so the differential
		// verdict turns any observed loss into an escape. Undetected and
		// oracle-silent means the drop was never architecturally consumed
		// within the budget — latent, the same doctrine as the ctrl-state
		// class. (Found by the coverage campaign: clean-copy drops were
		// misclassified as escapes.)
		undetected: masked,
	},
	FaultSilentWrite: {
		name: "ctrl-silent-write",
		arm: func(s *System, n int, _ Injection, rng *sim.Rand) bool {
			// Prefer blocks held without write permission: the
			// interesting controller fault skips the upgrade before
			// writing.
			blocks := s.ctrls[n].ResidentReadOnlyBlocks(64)
			if len(blocks) == 0 {
				blocks = s.ctrls[n].ResidentBlocks(64)
			}
			b, ok := pickBlock(blocks, rng)
			return ok && s.ctrls[n].WriteWithoutPermissionFault(b.WordAddr(rng.Intn(mem.WordsPerBlock)),
				mem.Word(rng.Uint64()))
		},
		// The faulty controller wrote a random word into a resident copy
		// without permission. Only a local load of that exact word can
		// consume the corruption — a remote writer invalidates the rogue
		// copy harmlessly, and a read-only copy is discarded unwritten on
		// eviction. The injector picks a uniform word in the block, so
		// most rogue writes land on words the program never loads; those
		// are latent. A consumed rogue value is caught online by the VC's
		// value comparison or offline by the oracle, which the masked
		// branch of the differential verdict reports as an escape. (Found
		// by the coverage campaign: unconsumed rogue writes were
		// misclassified as escapes.)
		undetected: masked,
	},
	FaultCtrlStateCorrupt: {
		name: "ctrl-state-corrupt",
		arm: func(s *System, n int, _ Injection, rng *sim.Rand) bool {
			// Demote direction first: silently downgrade a Modified line
			// to Shared, forgetting its writeback obligation. Only lines
			// whose data actually differs from the home memory image make
			// the ground truth solid — any later exercise of the
			// corruption is then a genuine lost update — so clean lines
			// fall through to the promote direction (upgrade S/O to M
			// without a data grant).
			for _, b := range s.ctrls[n].ResidentBlocks(64) {
				if s.blockDirty(n, b) && s.ctrls[n].CorruptLineStateFault(b, false) {
					return true
				}
			}
			b, ok := pickBlock(s.ctrls[n].ResidentReadOnlyBlocks(64), rng)
			return ok && s.ctrls[n].CorruptLineStateFault(b, true)
		},
		// The corrupted state bits can sit unexercised for a long time;
		// the architectural error begins when a store performs under (or
		// a dirty copy is lost in) the corrupted state.
		fired: func(s *System, n int) (sim.Cycle, bool) { return s.ctrls[n].StateFaultFired() },
		// Masked while the corrupted state was never exercised (the line
		// was invalidated or re-granted before a store performed on a
		// promoted line, or before a demoted line's dirty copy was lost)
		// — and also when it fired without any later observation: every
		// post-corruption reuse of the block runs through the MET's epoch
		// checks (the detected runs fire data-propagation-mismatch or
		// epoch-overlap there), and an observed stale value reaches the
		// offline oracle, which the differential verdict turns into an
		// escape. A fired-but-undetected, oracle-silent run therefore had
		// no architecturally visible effect within the budget — latent
		// corruption, the same semantics as the data-flip classes.
		// (Found by the coverage campaign: a demotion firing during the
		// post-drain writeback flush, with no block reuse left to check,
		// was misclassified as an escape.)
		undetected: masked,
	},
	FaultTimeSkew: {
		name: "lt-skew",
		// Skew in logical-time ticks. The default is half the Time16
		// range, the compressed-timestamp scrubber's wraparound worst
		// case; the draw is biased toward that half-range, where skew
		// attacks the wraparound scrubber's ordering premise hardest.
		magnitude: param{def: 1 << 15, base: 1, span: 1 << 16},
		arm: func(s *System, n int, inj Injection, _ *sim.Rand) bool {
			ck := s.clocks[n]
			if ck == nil {
				// Snooping's logical time is the broadcast sequence
				// number — there is no physical clock to skew.
				return false
			}
			ck.InjectSkew(inj.Magnitude * skewDiv)
			return true
		},
		// Skew perturbs only the verification metadata's time base: a
		// probe of the checking machinery itself. Undetected is the
		// expected clean outcome; a bug surfaces as an offline-oracle
		// contradiction (escape) or online noise (false alarm) in the
		// differential verdict.
		undetected: masked,
	},
	FaultNestedRecovery: {
		name: "nested-recovery",
		// The default re-trigger delay is well inside one checkpoint
		// interval.
		window: param{def: 2500, base: 100, span: 4000},
		// System.Recover without a manager reports not-applied.
		needsSafetyNet: true,
		arm: func(s *System, _ int, inj Injection, _ *sim.Rand) bool {
			// First rollback now; the injection run issues the second one
			// inside the recovery window, before any fresh checkpoint.
			if !s.Recover(inj.Cycle) {
				return false
			}
			s.recoverAgainAt = inj.Cycle + inj.Window
			return true
		},
		evidence: evidenceNone,
		// A correct double rollback leaves no architectural error: like
		// lt-skew, a probe of the checking machinery whose expected clean
		// outcome is "undetected".
		undetected: masked,
	},
}

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	// Any byte can arrive here from a span dump (dvmc-stat timeline).
	if k < numFaultKinds && faultKinds[k].name != "" {
		return faultKinds[k].name
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// AllFaultKinds lists every injectable fault class.
func AllFaultKinds() []FaultKind {
	out := make([]FaultKind, 0, int(numFaultKinds)-1)
	for k := FaultKind(1); k < numFaultKinds; k++ {
		out = append(out, k)
	}
	return out
}

// ParseFaultKind resolves a kind's String name.
func ParseFaultKind(name string) (FaultKind, error) {
	for k := FaultKind(1); k < numFaultKinds; k++ {
		if faultKinds[k].name == name {
			return k, nil
		}
	}
	known := make([]string, 0, numFaultKinds-1)
	for _, k := range AllFaultKinds() {
		known = append(known, k.String())
	}
	return 0, fmt.Errorf("dvmc: unknown fault kind %q (known: %s)", name, strings.Join(known, ", "))
}

// DrawParams draws a fuzzed injection's Window and Magnitude from the
// ranges the kind declares, window first; a parameter the kind does not
// vary comes back 0, its default.
func (k FaultKind) DrawParams(rng *sim.Rand) (window Cycle, magnitude uint64) {
	row := &faultKinds[k]
	return sim.Cycle(row.window.draw(rng)), row.magnitude.draw(rng)
}

// NeedsSafetyNet reports whether the kind can only be applied to a
// system with SafetyNet on.
func (k FaultKind) NeedsSafetyNet() bool { return faultKinds[k].needsSafetyNet }

// wbFaulter is the fault surface both write buffers offer; SC has no
// write buffer and offers none.
type wbFaulter interface {
	InjectDropNext()
	FaultFired() bool
}

// wbFaultFired reports whether node n's write buffer saw an armed fault
// actually alter a drain.
func wbFaultFired(s *System, n int) (sim.Cycle, bool) {
	wb, ok := s.cpus[n].WriteBuffer().(wbFaulter)
	return 0, ok && wb.FaultFired()
}

// lsqFaultFired reports when node n's armed LSQ fault corrupted a value.
func lsqFaultFired(s *System, n int) (sim.Cycle, bool) { return s.cpus[n].FaultActivatedAt() }

// msgFaultFired reports when the armed message fault met its message.
func msgFaultFired(s *System, _ int) (sim.Cycle, bool) {
	return s.msgFaultActivated, s.msgFaultActivated > 0
}

// armMsg arms a one-shot network fault: the hook waits for the first
// eligible message (coherence traffic only, or for FaultCorrupt one that
// bears a block), applies action to it and removes itself. The torus
// holds a FaultDelay or FaultDupStale victim back for inj.Window, the
// row's default when the injection names none.
func armMsg(action network.FaultAction, coherenceOnly bool) func(*System, int, Injection, *sim.Rand) bool {
	return func(s *System, _ int, inj Injection, rng *sim.Rand) bool {
		s.torus.SetFaultWindow(inj.Window)
		s.torus.SetFaultHook(func(m *network.Message) network.FaultAction {
			if coherenceOnly && m.Class != network.ClassCoherence {
				return network.FaultNone
			}
			if action == network.FaultCorrupt && !flipMessageData(m, rng) {
				return network.FaultNone // wait for a block-bearing message
			}
			s.msgFaultActivated = s.Now()
			s.torus.SetFaultHook(nil)
			return action
		})
		return true
	}
}

// armMsgBurst arms the reorder burst: the hook stays installed until
// Magnitude coherence messages are held, or the window closes.
func armMsgBurst(s *System, _ int, inj Injection, _ *sim.Rand) bool {
	s.torus.SetFaultWindow(inj.Window)
	burst := 0
	var burstAt sim.Cycle
	s.torus.SetFaultHook(func(m *network.Message) network.FaultAction {
		if m.Class != network.ClassCoherence {
			return network.FaultNone
		}
		if burst == 0 {
			burstAt = s.Now()
			s.msgFaultActivated = s.Now()
		} else if s.Now() >= burstAt+inj.Window {
			// The window closed before the burst filled; the torus
			// already released the partial burst at the deadline.
			s.torus.SetFaultHook(nil)
			return network.FaultNone
		}
		burst++
		if burst >= int(inj.Magnitude) {
			s.torus.SetFaultHook(nil)
		}
		return network.FaultHold
	})
	return true
}

// flipMessageData flips one data bit in a block-bearing payload,
// reporting whether the message carried one.
func flipMessageData(m *network.Message, rng *sim.Rand) bool {
	bit := rng.Intn(mem.BlockBytes * 8)
	word, off := bit/64, bit%64
	switch p := m.Payload.(type) {
	case coherence.MsgData:
		p.Data[word] ^= 1 << off
		m.Payload = p
	case coherence.MsgPutM:
		p.Data[word] ^= 1 << off
		m.Payload = p
	case coherence.MsgRecallAck:
		p.Data[word] ^= 1 << off
		m.Payload = p
	case coherence.MsgSnoopData:
		p.Data[word] ^= 1 << off
		m.Payload = p
	case coherence.MsgSnoopWB:
		p.Data[word] ^= 1 << off
		m.Payload = p
	default:
		return false
	}
	return true
}

// pickBlock draws one of the candidate blocks, if there are any.
func pickBlock(blocks []mem.BlockAddr, rng *sim.Rand) (mem.BlockAddr, bool) {
	if len(blocks) == 0 {
		return 0, false
	}
	return blocks[rng.Intn(len(blocks))], true
}

// blockDirty reports whether node n's cached copy of b differs from the
// block's home memory image. Fault-targeting cold path only.
func (s *System) blockDirty(n int, b mem.BlockAddr) bool {
	img := s.homes[s.cfg.Memory.HomeOf(b)].Memory().ReadBlock(b)
	for w := 0; w < mem.WordsPerBlock; w++ {
		v, ok := s.ctrls[n].PeekWord(b.WordAddr(w))
		if !ok {
			return false
		}
		if v != img[w] {
			return true
		}
	}
	return false
}
