package fuzz

import (
	"fmt"
	"sort"

	"dvmc"
	"dvmc/internal/mem"
)

// DefaultMinimizeBudget bounds the minimizer's re-run count per failure.
// Each candidate costs one full simulation, so this is the knob that
// trades shrink quality against campaign time.
const DefaultMinimizeBudget = 2000

// Minimize delta-debugs a failing case down to a smaller one with the
// same classification. It applies shrinking passes in rounds — drop
// whole threads, ddmin each thread's op list, simplify individual ops
// (weaken membar masks, clear Bits32, zero gaps), and canonicalize the
// address set — re-running the simulator after every candidate, until a
// round makes no progress (1-minimal) or the re-run budget is spent.
//
// The target classification is c.Expect when set, otherwise the class
// RunCase reports for c as given. The returned case always reproduces
// the target class; Minimize never returns a non-reproducing shrink.
func Minimize(c *Case, budget int) (*Case, error) {
	if budget <= 0 {
		budget = DefaultMinimizeBudget
	}
	m := &minimizer{budget: budget}

	target := c.Expect
	if target == "" {
		res, _, err := RunCase(c)
		if err != nil {
			return nil, err
		}
		m.budget--
		target = res.Class
	}
	m.target = target

	best := c.Clone()
	best.Expect = target
	if !m.reproduces(best) {
		return nil, fmt.Errorf("fuzz: case %q does not reproduce %s", c.Name, target)
	}

	for m.budget > 0 {
		before := sizeOf(best)
		best = m.dropThreads(best)
		best = m.ddminOps(best)
		best = m.simplifyOps(best)
		best = m.canonicalizeAddrs(best)
		best = m.shrinkFault(best)
		if sizeOf(best) == before && !m.progress {
			break
		}
		m.progress = false
	}
	return best, nil
}

// minimizer carries the shrink state: the target class, the remaining
// re-run budget, and whether the current round changed anything that
// sizeOf does not see (op simplification, address canonicalization).
type minimizer struct {
	target   dvmc.Class
	budget   int
	progress bool
}

// sizeOf is the shrink metric: total ops plus threads.
func sizeOf(c *Case) int { return c.Program.NumOps() + c.Program.NumThreads() }

// reproduces runs a candidate and reports whether it still shows the
// target class. It charges the budget; once the budget is spent every
// candidate is rejected, freezing the current best.
func (m *minimizer) reproduces(c *Case) bool {
	if m.budget <= 0 {
		return false
	}
	m.budget--
	if err := c.Validate(); err != nil {
		return false
	}
	res, _, err := RunCase(c)
	if err != nil {
		return false
	}
	return res.Class == m.target
}

// dropThreads tries removing each thread in turn (restarting after every
// success so the result is 1-minimal in threads). A fault pinned to a
// removed or out-of-range node is re-pinned to the last remaining node —
// the candidate only survives if the fault still reproduces there.
func (m *minimizer) dropThreads(c *Case) *Case {
	for c.Program.NumThreads() > 1 {
		shrunk := false
		for t := 0; t < c.Program.NumThreads(); t++ {
			cand := c.Clone()
			cand.Program.Threads = append(
				cand.Program.Threads[:t:t], cand.Program.Threads[t+1:]...)
			clampFaultNode(cand)
			if m.reproduces(cand) {
				c = cand
				shrunk = true
				break
			}
		}
		if !shrunk {
			return c
		}
	}
	return c
}

// clampFaultNode keeps an injected fault's node within the shrunken
// system.
func clampFaultNode(c *Case) {
	if c.Fault == nil {
		return
	}
	if n := c.Nodes(); c.Fault.Node >= n {
		c.Fault.Node = n - 1
	}
	if c.Fault.Node < 0 {
		c.Fault.Node = 0
	}
}

// ddminOps runs the classic ddmin chunk-removal loop over every
// thread's op list: try deleting chunks at the current granularity,
// halve the granularity when nothing at this size can go, stop at
// single-op granularity.
func (m *minimizer) ddminOps(c *Case) *Case {
	for t := 0; t < c.Program.NumThreads(); t++ {
		c = m.ddminThread(c, t)
	}
	return c
}

func (m *minimizer) ddminThread(c *Case, t int) *Case {
	chunk := len(c.Program.Threads[t]) / 2
	if chunk < 1 {
		chunk = 1
	}
	for {
		removed := false
		for start := 0; start < len(c.Program.Threads[t]); {
			ops := c.Program.Threads[t]
			end := start + chunk
			if end > len(ops) {
				end = len(ops)
			}
			cand := c.Clone()
			cand.Program.Threads[t] = append(
				cand.Program.Threads[t][:start:start], ops[end:]...)
			if m.reproduces(cand) {
				c = cand
				removed = true
				// Do not advance: the next chunk slid into place.
			} else {
				start += chunk
			}
		}
		if removed {
			continue // retry at the same granularity
		}
		if chunk == 1 {
			return c // 1-minimal in ops for this thread
		}
		chunk /= 2
	}
}

// simplifyOps tries per-op simplifications that keep the op count
// constant but reduce its information content: clear Bits32, zero the
// compute gap, weaken membar masks one bit at a time, and turn RMWs
// into plain stores.
func (m *minimizer) simplifyOps(c *Case) *Case {
	for t := 0; t < c.Program.NumThreads(); t++ {
		for i := 0; i < len(c.Program.Threads[t]); i++ {
			for _, simp := range simplifications(c.Program.Threads[t][i]) {
				cand := c.Clone()
				cand.Program.Threads[t][i] = simp
				if m.reproduces(cand) {
					c = cand
					m.progress = true
				}
			}
		}
	}
	return c
}

// simplifications enumerates strictly simpler variants of one op, most
// aggressive first.
func simplifications(o Op) []Op {
	var out []Op
	if o.Gap != 0 {
		s := o
		s.Gap = 0
		out = append(out, s)
	}
	if o.Bits32 {
		s := o
		s.Bits32 = false
		out = append(out, s)
	}
	if o.Kind == KindRMW {
		s := o
		s.Kind = KindStore
		s.RMW = ""
		s.Data = 1
		out = append(out, s)
	}
	if o.Kind == KindMembar {
		// Try each single surviving bit: a weaker mask that still orders
		// something.
		for bit := uint8(1); bit < 16; bit <<= 1 {
			if o.Mask&bit != 0 && o.Mask != bit {
				s := o
				s.Mask = bit
				out = append(out, s)
			}
		}
	}
	return out
}

// shrinkFault simplifies the injected fault's parameter fields while
// preserving the classification: drop the Window/Magnitude overrides
// back to the kind defaults (a reproducer that needs no override is
// simpler to reason about), or failing that halve them toward zero.
// sizeOf does not see these fields, so successes set m.progress.
func (m *minimizer) shrinkFault(c *Case) *Case {
	if c.Fault == nil {
		return c
	}
	for _, mut := range []func(*FaultSpec){
		func(f *FaultSpec) { f.Window = 0 },
		func(f *FaultSpec) { f.Window /= 2 },
		func(f *FaultSpec) { f.Magnitude = 0 },
		func(f *FaultSpec) { f.Magnitude /= 2 },
	} {
		cand := c.Clone()
		mut(cand.Fault)
		if *cand.Fault == *c.Fault {
			continue
		}
		if m.reproduces(cand) {
			c = cand
			m.progress = true
		}
	}
	return c
}

// canonicalizeAddrs renames the program's address set onto the densest
// possible layout: distinct addresses map, in sorted order, to word 0 of
// block 0, word 0 of block 1, … — collapsing incidental address spread
// while preserving the aliasing structure (equal stays equal, distinct
// stays distinct).
func (m *minimizer) canonicalizeAddrs(c *Case) *Case {
	seen := map[uint64]bool{}
	for _, ops := range c.Program.Threads {
		for _, o := range ops {
			if o.Kind != KindMembar {
				seen[o.Addr] = true
			}
		}
	}
	addrs := make([]uint64, 0, len(seen))
	for a := range seen {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	remap := make(map[uint64]uint64, len(addrs))
	identity := true
	for i, a := range addrs {
		na := uint64(i) * mem.BlockBytes
		remap[a] = na
		if na != a {
			identity = false
		}
	}
	if identity {
		return c
	}
	cand := c.Clone()
	for t := range cand.Program.Threads {
		for i := range cand.Program.Threads[t] {
			if cand.Program.Threads[t][i].Kind != KindMembar {
				cand.Program.Threads[t][i].Addr = remap[cand.Program.Threads[t][i].Addr]
			}
		}
	}
	if m.reproduces(cand) {
		m.progress = true
		return cand
	}
	return c
}
