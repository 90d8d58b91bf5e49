package dvmc

import (
	"errors"
	"fmt"
	"testing"

	"dvmc/internal/coherence"
	"dvmc/internal/core"
	"dvmc/internal/network"
)

// messageBalance reports an error unless every message sp's lists handed
// out is back exactly once: the coherence messages, the informs and the
// SafetyNet write-log messages.
func messageBalance(sp *spare) error {
	return errors.Join(sp.coh.Balance(), sp.informs.Balance(), sp.sn.Balance())
}

// balanceRun builds one system on an empty spare, seeds it (seed may be
// nil), runs it with run and retires it, and returns messageBalance of the
// spare. A panic, such as a second release of a message, is returned as
// the error.
func balanceRun(cfg Config, w Workload, seed func(*System), run func(*System) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	sp := new(spare)
	onSpare(sp, func() {
		var s *System
		if s, err = NewSystem(cfg, w); err != nil {
			return
		}
		if seed != nil {
			seed(s)
		}
		err = run(s)
		s.Retire()
	})
	return errors.Join(err, messageBalance(sp))
}

// TestMessageBalance runs directory and snooping systems with DVMC and
// SafetyNet on — fault-free to the end, cut short by their budget, through
// one forced recovery, and with each message fault injected — and retires
// each. Every message the spare's lists handed out must then be back
// exactly once, whether its last holder was the component that consumed
// it, the network that dropped it, or the retirement that found it still
// in flight. A holder that misses a release, or releases twice, fails it.
func TestMessageBalance(t *testing.T) {
	const budget = 400_000
	toEnd := func(s *System) error {
		s.RunToCompletion(budget)
		return nil
	}
	recovery := func(s *System) error {
		s.RunCycles(12_000)
		if s.torus.Quiet() {
			return errors.New("nothing in flight when the system recovers")
		}
		if !s.Recover(s.Now()) {
			return errors.New("no checkpoint to recover to")
		}
		s.RunToCompletion(budget)
		return nil
	}
	cut := func(s *System) error {
		s.RunCycles(15_000)
		if s.torus.Quiet() {
			return errors.New("nothing in flight when the run is cut")
		}
		return nil
	}
	injected := func(kind FaultKind) func(*System) error {
		return func(s *System) error {
			s.inject(Injection{Kind: kind, Node: 1, Cycle: 300}, budget)
			if s.msgFaultActivated == 0 {
				return fmt.Errorf("%v never fired", kind)
			}
			return nil
		}
	}
	for _, proto := range []Protocol{Directory, Snooping} {
		cfg := injCfg().WithProtocol(proto)
		cfg.SafetyNet = true
		t.Run(proto.String(), func(t *testing.T) {
			for _, tc := range []struct {
				name string
				w    Workload
				run  func(*System) error
			}{
				{"fault-free", windowWorkload(), toEnd},
				{"cut", OLTP(), cut},
				{"recovery", OLTP(), recovery},
				{"msg-drop", windowWorkload(), injected(FaultMsgDrop)},
				{"msg-duplicate", windowWorkload(), injected(FaultMsgDuplicate)},
				{"msg-misroute", windowWorkload(), injected(FaultMsgMisroute)},
				{"msg-reorder", windowWorkload(), injected(FaultMsgReorder)},
				{"msg-data-flip", windowWorkload(), injected(FaultMsgDataFlip)},
				{"msg-stale-dup", windowWorkload(), injected(FaultMsgStaleDup)},
				{"msg-reorder-burst", windowWorkload(), injected(FaultMsgReorderBurst)},
			} {
				if err := balanceRun(cfg, tc.w, nil, tc.run); err != nil {
					t.Errorf("%s: %v", tc.name, err)
				}
			}
		})
	}
}

// TestMessageBalanceCatchesSeededFaults seeds node 0's torus handler with
// a holder that never releases one coherence message, and with one that
// releases an inform or write-log message a second time after the
// fallback released it: each must fail the balance.
func TestMessageBalanceCatchesSeededFaults(t *testing.T) {
	missed := func(s *System) {
		h, once := torusHandler(s, 0), false
		s.torus.SetHandler(0, func(m *network.Message) {
			if !once && m.Class == network.ClassCoherence {
				once = true
				h(m.Clone()) // the original is never released
				return
			}
			h(m)
		})
	}
	double := func(s *System) {
		h, once := torusHandler(s, 0), false
		s.torus.SetHandler(0, func(m *network.Message) {
			h(m)
			if !once && m.Class != network.ClassCoherence {
				once = true
				m.Release()
			}
		})
	}
	for _, proto := range []Protocol{Directory, Snooping} {
		cfg := injCfg().WithProtocol(proto)
		cfg.SafetyNet = true
		for _, tc := range []struct {
			name string
			seed func(*System)
		}{{"missed release", missed}, {"double release", double}} {
			err := balanceRun(cfg, windowWorkload(), tc.seed, func(s *System) error {
				s.RunToCompletion(400_000)
				return nil
			})
			if err == nil {
				t.Errorf("%v, %s: the balance held", proto, tc.name)
			} else {
				t.Logf("%v, %s: %v", proto, tc.name, err)
			}
		}
	}
}

// torusHandler is the handler newSystem gives node i on the torus.
func torusHandler(s *System, i int) network.Handler {
	var met *core.MemChecker
	if s.met != nil {
		met = s.met[i]
	}
	switch c := s.ctrls[i].(type) {
	case *coherence.DirCache:
		return coherence.DirectoryHandler(c, s.homes[i].(*coherence.DirHome), s.informFallback(met))
	default:
		return coherence.SnoopingDataHandler(c.(*coherence.SnoopCache), s.homes[i].(*coherence.SnoopHome), s.informFallback(met))
	}
}
