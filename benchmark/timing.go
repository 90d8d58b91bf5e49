package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// Summary describes the wall times of one workload's timed chunks (or
// whole repetitions), in seconds.
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median_s"`
	P10    float64 `json:"p10_s"`
	P90    float64 `json:"p90_s"`
	Min    float64 `json:"min_s"`
}

// quantile returns the p-quantile (0..1) of an ascending slice by linear
// interpolation between the two nearest ranks. An empty slice yields NaN.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func summarize(samples []float64) Summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return Summary{
		N:      len(s),
		Median: quantile(s, 0.5),
		P10:    quantile(s, 0.1),
		P90:    quantile(s, 0.9),
		Min:    quantile(s, 0),
	}
}

// minSamplesForDecile is the sample count below which a decile is not
// a statistic: with fewer samples the timing rule falls back to the
// fastest repetition.
const minSamplesForDecile = 20

// RuleTime is the chunk time the rate metrics divide by — the timing
// rule of README.md: the fastest-decile chunk time, or the fastest
// repetition when there are too few samples for a decile. Host
// interference only ever adds time to a chunk, so the fast tail is the
// part of the distribution that belongs to the program.
func (s Summary) RuleTime() float64 {
	if s.N < minSamplesForDecile {
		return s.Min
	}
	return s.P10
}

// timeChunks runs fn n times and returns each call's wall time in
// seconds.
func timeChunks(n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		t := time.Now()
		fn(i)
		out[i] = time.Since(t).Seconds()
	}
	return out
}

// interleave runs rounds rounds of every unit in turn, timing each call
// and counting the heap objects it allocates. Units that are to be
// compared (untraced against traced, one ablation configuration against
// the next) are interleaved rather than run one after the other so that
// a change of host speed during the run falls on all of them alike.
func interleave(rounds int, units ...func(i int)) (secs [][]float64, allocs []uint64) {
	secs = make([][]float64, len(units))
	allocs = make([]uint64, len(units))
	for u := range secs {
		secs[u] = make([]float64, 0, rounds)
	}
	for i := 0; i < rounds; i++ {
		for u, unit := range units {
			m0 := mallocs()
			t := time.Now()
			unit(i)
			secs[u] = append(secs[u], time.Since(t).Seconds())
			allocs[u] += mallocs() - m0
		}
	}
	return secs, allocs
}

// mallocs returns the process's cumulative heap-object allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// driveResult is one layer driver's cost per operation.
type driveResult struct {
	NsPerOp     float64
	AllocsPerOp float64
}

// drive measures step(i) by the timing rule: batches of batch calls are
// the chunks, timed until budget elapses (at least minSamplesForDecile
// batches), after warm warm-up calls. Allocations are counted over all
// timed batches.
func drive(warm, batch int, budget time.Duration, step func(i int)) driveResult {
	i := 0
	for ; i < warm; i++ {
		step(i)
	}
	var samples []float64
	m0 := mallocs()
	start := time.Now()
	for len(samples) < minSamplesForDecile || time.Since(start) < budget {
		t := time.Now()
		for j := 0; j < batch; j++ {
			step(i)
			i++
		}
		samples = append(samples, time.Since(t).Seconds())
	}
	m1 := mallocs()
	ops := float64(len(samples) * batch)
	return driveResult{
		NsPerOp:     summarize(samples).RuleTime() / float64(batch) * 1e9,
		AllocsPerOp: float64(m1-m0) / ops,
	}
}
