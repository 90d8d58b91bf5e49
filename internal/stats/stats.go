// Package stats provides the small statistical helpers the experiment
// harness needs: mean and standard deviation over repeated perturbed
// runs (the paper runs each simulation ten times with small pseudo-random
// perturbations and reports means with one-standard-deviation error
// bars), plus ratio series for the normalised-runtime figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample is a set of observations of one quantity.
type Sample struct {
	values []float64
}

// Add appends an observation.
func (s *Sample) Add(v float64) { s.values = append(s.values, v) }

// N returns the observation count.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// StdDev returns the sample standard deviation (0 for fewer than two
// observations).
func (s *Sample) StdDev() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	ss := 0.0
	for _, v := range s.values {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Min returns the smallest observation (0 for an empty sample).
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest observation (0 for an empty sample).
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Values returns a copy of the observations.
func (s *Sample) Values() []float64 { return append([]float64(nil), s.values...) }

// String implements fmt.Stringer: "mean ± stddev".
func (s *Sample) String() string {
	return fmt.Sprintf("%.3f ± %.3f", s.Mean(), s.StdDev())
}

// Quantile returns the p-quantile (0 <= p <= 1) of the sample using
// linear interpolation between order statistics (the same "type 7"
// estimator R and NumPy default to). Quantile(0) is the minimum,
// Quantile(0.5) the median, Quantile(1) the maximum. It returns 0 for an
// empty sample and panics for p outside [0, 1].
func (s *Sample) Quantile(p float64) float64 {
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("stats: Quantile(%v) outside [0, 1]", p))
	}
	n := len(s.values)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.values...)
	sort.Float64s(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Bin is one histogram bucket: the half-open interval [Lo, Hi) — the
// last bin is closed — and the observation count that fell into it.
type Bin struct {
	Lo, Hi float64
	Count  int
}

// Histogram buckets the sample into n equal-width bins spanning
// [Min, Max]. The last bin includes its upper edge so the maximum is
// counted. A constant sample (Min == Max) lands entirely in one bin of
// zero width. It returns nil for an empty sample and panics for n < 1.
func (s *Sample) Histogram(n int) []Bin {
	if n < 1 {
		panic(fmt.Sprintf("stats: Histogram with %d bins", n))
	}
	if len(s.values) == 0 {
		return nil
	}
	lo, hi := s.Min(), s.Max()
	if lo == hi {
		return []Bin{{Lo: lo, Hi: hi, Count: len(s.values)}}
	}
	width := (hi - lo) / float64(n)
	bins := make([]Bin, n)
	for i := range bins {
		bins[i].Lo = lo + float64(i)*width
		bins[i].Hi = lo + float64(i+1)*width
	}
	bins[n-1].Hi = hi // avoid float drift on the top edge
	for _, v := range s.values {
		i := int((v - lo) / width)
		if i >= n { // v == hi (or drift): closed top bin
			i = n - 1
		}
		bins[i].Count++
	}
	return bins
}

// FormatHistogram renders bins as a compact one-line summary
// ("[0,2):3 [2,4]:1"), for campaign reports and error messages.
func FormatHistogram(bins []Bin) string {
	var b strings.Builder
	for i, bin := range bins {
		if i > 0 {
			b.WriteByte(' ')
		}
		close := ")"
		if i == len(bins)-1 {
			close = "]"
		}
		fmt.Fprintf(&b, "[%g,%g%s:%d", bin.Lo, bin.Hi, close, bin.Count)
	}
	return b.String()
}

// NormalizeBy divides every observation by a scalar.
func NormalizeBy(s *Sample, by float64) *Sample {
	if by == 0 {
		panic("stats: normalise by zero")
	}
	out := &Sample{}
	for _, v := range s.values {
		out.Add(v / by)
	}
	return out
}
