package stream

import (
	"fmt"

	"dvmc/internal/consistency"
	"dvmc/internal/mem"
	"dvmc/internal/oracle"
	"dvmc/internal/trace"
)

// wkey is one (word, value) point of the global write history.
type wkey struct {
	addr mem.Addr
	val  mem.Word
}

// performValue is the value rule's share of a perform event: a store
// extends the write history, a load (or an atomic's load half) is checked
// against it.
func (c *Checker) performValue(idx uint64, ev *trace.Event) {
	switch {
	case ev.Class == consistency.Store:
		c.addWriter(wkey{addr: ev.Addr, val: ev.Val})
		if ev.IsRMW {
			// The atomic's load half binds the current coherent value; its
			// own new value joined the history first, as in the reference's
			// whole-trace first pass.
			c.checkValue(idx, ev, ev.Val2)
		}
	case ev.Class == consistency.Load && !ev.IsRMW:
		if ev.Fwd {
			c.stats.SkippedForwarded++
		} else {
			c.checkValue(idx, ev, ev.Val)
		}
	}
}

// addWriter extends the write history and answers any queries waiting on
// exactly this (word, value) point.
func (c *Checker) addWriter(k wkey) {
	if c.writers.add(k) && len(c.pending) > 0 {
		delete(c.pending, k)
	}
}

// checkValue is R3 with membership deferred. The reference's writer sets
// span the whole trace, so a load that binds a value nobody has written
// yet is not a finding yet: the query stays open until a later store
// performs that value to that word — it resolves silently — or the stream
// ends, when it is exactly the violation the reference emits. A recovery
// fold or the zero init value passes it at once.
func (c *Checker) checkValue(idx uint64, ev *trace.Event, v mem.Word) {
	c.stats.ValueChecks++
	k := wkey{addr: ev.Addr, val: v}
	if c.writers.has(k) || c.recovered.has(k) || v == 0 {
		return
	}
	what := "load"
	if ev.IsRMW {
		what = "rmw old value"
	}
	// Pending queries exist only for anomalous bindings; zero on legal
	// traces, which never make the map.
	if c.pending == nil {
		c.pending = make(map[wkey][]finding)
	}
	c.pending[k] = append(c.pending[k], finding{idx: idx, v: oracle.Violation{
		Rule: oracle.RuleLoadValue, Node: int(ev.Node), Seq: ev.Seq, Time: ev.Time,
		Detail: fmt.Sprintf("%s bound %#x at %#x, which no processor wrote", what, uint64(v), uint64(ev.Addr)),
	}})
}
