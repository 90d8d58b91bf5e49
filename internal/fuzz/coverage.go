package fuzz

import (
	"fmt"
	"math/bits"
	"sort"

	"dvmc"
	"dvmc/internal/consistency"
	"dvmc/internal/mem"
	"dvmc/internal/sim"
	"dvmc/internal/telemetry"
)

// This file is the coverage half of a campaign with generations: a
// deterministic coverage map distilled from each run's classification
// and telemetry snapshot, and the mutation engine that breeds new cases
// from the seeds that reached novel coverage. The generation loop is
// campaign.go's Run.

// logBucket collapses a counter onto its power-of-two bucket (0 -> 0,
// 1 -> 1, 2..3 -> 2, 4..7 -> 3, ...): coarse enough that feature counts
// stay bounded, fine enough that order-of-magnitude regime changes —
// a latency blowup, a retry storm — register as new coverage.
func logBucket(v uint64) int { return bits.Len64(v) }

// CaseFeatures distills one run into its coverage signature: a sorted,
// deduplicated set of feature strings over the differential verdict,
// the fault ground truth, and the telemetry snapshot's metric and
// detection-latency buckets. Two runs with equal signatures exercised
// the system in the same (bucketed) regimes; a run whose signature
// adds a feature the campaign has not seen reached new behavior and is
// worth keeping as a mutation seed. The function is pure, so the
// signature is reproducible wherever the run executes.
func CaseFeatures(c *Case, res RunResult, snap *telemetry.Snapshot) []string {
	set := make(map[string]bool)
	id := c.Model + ":" + c.Protocol
	set["class:"+id+":"+string(res.Class)] = true
	set[fmt.Sprintf("finished:%s:%v", id, res.Finished)] = true
	set[fmt.Sprintf("online:%d", logBucket(uint64(res.Online)))] = true
	set[fmt.Sprintf("oracle:%d", logBucket(uint64(res.Oracle)))] = true
	if c.Fault != nil {
		outcome := "silent"
		switch {
		case !res.Applied:
			outcome = "not-applied"
		case res.Detected:
			outcome = "detected"
		case res.Masked:
			outcome = "masked"
		}
		set["fault:"+c.Fault.Kind+":"+outcome] = true
		if res.Detected {
			set[fmt.Sprintf("lat:%s:%d", c.Fault.Kind, logBucket(res.Latency))] = true
		}
	}
	if snap != nil {
		for _, m := range snap.Metrics {
			for _, v := range m.Values {
				if v.Value == 0 {
					// A zero-valued slot is the default state, not coverage.
					continue
				}
				f := "m:" + m.Name
				if v.LabelValue != "" {
					f += ":" + v.LabelValue
				}
				if v.Value < 0 {
					set[fmt.Sprintf("%s:-%d", f, logBucket(uint64(-v.Value)))] = true
				} else {
					set[fmt.Sprintf("%s:%d", f, logBucket(uint64(v.Value)))] = true
				}
			}
		}
		for _, l := range snap.Latency {
			set[fmt.Sprintf("ilat:%s:%d", l.Invariant, logBucket(uint64(l.MaxCyc)))] = true
		}
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// coverageMap is the campaign's accumulated coverage state: the feature
// set seen so far and the seed pool — every case whose run added at
// least one feature, in ascending run-index order. Distillation order
// is the determinism contract: records are always folded in ascending
// index order, so the map (and therefore every later generation) is a
// pure function of the record table, not of worker scheduling.
type coverageMap struct {
	features map[string]bool
	pool     []*Case
}

func newCoverageMap() *coverageMap {
	return &coverageMap{features: make(map[string]bool)}
}

// add folds one record in and reports how many of its features were
// new. Novelty-producing cases join the seed pool.
func (cm *coverageMap) add(rec *Record) int {
	novel := 0
	for _, f := range rec.Features {
		if !cm.features[f] {
			cm.features[f] = true
			novel++
		}
	}
	if novel > 0 && rec.Case != nil {
		cm.pool = append(cm.pool, rec.Case)
	}
	return novel
}

// maxMutatedOps bounds per-thread growth under repeated splicing, so a
// lineage of mutants cannot balloon into minute-long simulations.
const maxMutatedOps = 512

// mutateCase breeds one mutant from a seed case: 1..3 mutations drawn
// from the mutator families — op splice, membar weaken/strengthen,
// address-pool perturbation, fault-spec mutation, and regime flips
// (model/protocol/simulator-seed), which transplant a coverage-earning
// program into an environment it has not yet been scored in.
// Deterministic in rng; the result is always structurally valid.
func mutateCase(rng *sim.Rand, seed *Case, kinds []string) *Case {
	c := seed.Clone()
	c.Expect = ""
	for n := 1 + rng.Intn(3); n > 0; n-- {
		switch rng.Intn(7) {
		case 0:
			mutateSplice(rng, c)
		case 1:
			mutateMembar(rng, c)
		case 2:
			mutateAddr(rng, c)
		case 3:
			mutateFault(rng, c, kinds)
		case 4:
			mutateRegime(rng, c)
		case 5:
			c.Seed = rng.Uint64()
		case 6:
			mutateThreads(rng, c)
		}
	}
	return c
}

// maxMutatedThreads bounds thread-duplication growth. Deliberately
// above the random deriver's 2..4 range: breeding past the generator's
// envelope (5- and 6-node systems) is coverage random sampling cannot
// reach at any budget.
const maxMutatedThreads = 6

// mutateThreads duplicates one thread (a new node replaying a
// coverage-earning op sequence) or drops one.
func mutateThreads(rng *sim.Rand, c *Case) {
	threads := c.Program.Threads
	switch {
	case len(threads) > 1 && rng.Bool(0.4):
		i := rng.Intn(len(threads))
		c.Program.Threads = append(threads[:i:i], threads[i+1:]...)
		clampFaultNode(c)
	case len(threads) < maxMutatedThreads:
		src := rng.Intn(len(threads))
		dup := append([]Op(nil), threads[src]...)
		c.Program.Threads = append(threads, dup)
	}
}

// mutateRegime moves the case to a different consistency model or
// coherence protocol, keeping the program and fault.
func mutateRegime(rng *sim.Rand, c *Case) {
	if rng.Bool(0.5) {
		c.Model = caseModels[rng.Intn(len(caseModels))]
	} else {
		c.Protocol = caseProtocols[rng.Intn(len(caseProtocols))]
	}
}

// mutateSplice copies a short contiguous op run from one thread into a
// random position of another (or the same) thread — the crossover that
// transplants an interesting access pattern into a new interleaving.
func mutateSplice(rng *sim.Rand, c *Case) {
	threads := c.Program.Threads
	src := rng.Intn(len(threads))
	dst := rng.Intn(len(threads))
	if len(threads[src]) == 0 || len(threads[dst]) >= maxMutatedOps {
		return
	}
	n := 1 + rng.Intn(4)
	if n > len(threads[src]) {
		n = len(threads[src])
	}
	from := rng.Intn(len(threads[src]) - n + 1)
	slice := append([]Op(nil), threads[src][from:from+n]...)
	at := rng.Intn(len(threads[dst]) + 1)
	ops := threads[dst]
	out := make([]Op, 0, len(ops)+n)
	out = append(out, ops[:at]...)
	out = append(out, slice...)
	out = append(out, ops[at:]...)
	c.Program.Threads[dst] = out
}

// mutateMembar perturbs the program's ordering skeleton: flip one mask
// bit of an existing membar (weakening or strengthening it, but never
// to an empty mask), or insert a fresh membar at a random position.
func mutateMembar(rng *sim.Rand, c *Case) {
	t := rng.Intn(len(c.Program.Threads))
	ops := c.Program.Threads[t]
	var bars []int
	for i, o := range ops {
		if o.Kind == KindMembar {
			bars = append(bars, i)
		}
	}
	if len(bars) > 0 && rng.Bool(0.7) {
		i := bars[rng.Intn(len(bars))]
		bit := uint8(1) << rng.Intn(4)
		if next := ops[i].Mask ^ bit; next != 0 && next <= uint8(consistency.FullMask) {
			ops[i].Mask = next
		}
		return
	}
	if len(ops) >= maxMutatedOps {
		return
	}
	bar := Op{Kind: KindMembar, Mask: uint8(1 + rng.Intn(int(consistency.FullMask)))}
	at := rng.Intn(len(ops) + 1)
	out := make([]Op, 0, len(ops)+1)
	out = append(out, ops[:at]...)
	out = append(out, bar)
	out = append(out, ops[at:]...)
	c.Program.Threads[t] = out
}

// mutateAddr perturbs the address pool: remap one distinct address
// everywhere it occurs, either onto another address already in use
// (collapsing two footprints into new aliasing) or onto a fresh word
// (spreading contention out).
func mutateAddr(rng *sim.Rand, c *Case) {
	seen := make(map[uint64]bool)
	for _, ops := range c.Program.Threads {
		for _, o := range ops {
			if o.Kind != KindMembar {
				seen[o.Addr] = true
			}
		}
	}
	if len(seen) == 0 {
		return
	}
	addrs := make([]uint64, 0, len(seen))
	for a := range seen {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	oldA := addrs[rng.Intn(len(addrs))]
	var newA uint64
	if len(addrs) > 1 && rng.Bool(0.5) {
		for newA = oldA; newA == oldA; {
			newA = addrs[rng.Intn(len(addrs))]
		}
	} else {
		// The fresh-address range deliberately exceeds the random
		// deriver's 1..4-block, 1..4-word pool.
		newA = uint64(rng.Intn(8))*mem.BlockBytes + uint64(rng.Intn(mem.WordsPerBlock))*mem.WordBytes
	}
	for t := range c.Program.Threads {
		for i := range c.Program.Threads[t] {
			op := &c.Program.Threads[t][i]
			if op.Kind != KindMembar && op.Addr == oldA {
				op.Addr = newA
			}
		}
	}
}

// mutateFault perturbs the injected fault — or plants one in a
// fault-free seed. Field mutations cover every axis the hostile fault
// models parameterize: kind, node, cycle, window, and magnitude.
func mutateFault(rng *sim.Rand, c *Case, kinds []string) {
	names := kinds
	if len(names) == 0 {
		names = FaultKindNames()
	}
	if c.Fault == nil {
		c.Fault = &FaultSpec{
			Kind:  names[rng.Intn(len(names))],
			Node:  rng.Intn(c.Program.NumThreads()),
			Cycle: 50 + rng.Uint64n(uint64(c.Program.NumOps()*40+200)),
		}
		deriveFaultExtras(rng, c)
		return
	}
	switch rng.Intn(5) {
	case 0:
		c.Fault.Kind = names[rng.Intn(len(names))]
		deriveFaultExtras(rng, c)
	case 1:
		c.Fault.Node = rng.Intn(c.Program.NumThreads())
	case 2:
		switch rng.Intn(3) {
		case 0:
			c.Fault.Cycle = 1 + c.Fault.Cycle/2
		case 1:
			c.Fault.Cycle *= 2
		default:
			c.Fault.Cycle += rng.Uint64n(1000)
		}
	case 3:
		c.Fault.Window = rng.Uint64n(4000)
	case 4:
		c.Fault.Magnitude = rng.Uint64n(1 << 16)
	}
	if k, _ := dvmc.ParseFaultKind(c.Fault.Kind); k.NeedsSafetyNet() {
		c.SafetyNet = true
	}
}
