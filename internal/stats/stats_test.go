package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func sampleOf(vs ...float64) *Sample {
	s := &Sample{}
	for _, v := range vs {
		s.Add(v)
	}
	return s
}

func TestMeanStdDev(t *testing.T) {
	s := sampleOf(2, 4, 4, 4, 5, 5, 7, 9)
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	want := math.Sqrt(32.0 / 7.0)
	if got := s.StdDev(); math.Abs(got-want) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", got, want)
	}
}

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.StdDev() != 0 || s.Min() != 0 || s.Max() != 0 || s.N() != 0 {
		t.Error("empty sample not all-zero")
	}
}

func TestSingleObservation(t *testing.T) {
	s := sampleOf(3)
	if s.Mean() != 3 || s.StdDev() != 0 || s.Min() != 3 || s.Max() != 3 {
		t.Error("single-observation sample wrong")
	}
}

func TestMinMax(t *testing.T) {
	s := sampleOf(5, -2, 9, 3)
	if s.Min() != -2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestNormalizeBy(t *testing.T) {
	s := NormalizeBy(sampleOf(10, 20), 10)
	if s.Values()[0] != 1 || s.Values()[1] != 2 {
		t.Errorf("NormalizeBy = %v", s.Values())
	}
}

// TestRatioPanics checks that a normalised ratio refuses a zero divisor.
func TestRatioPanics(t *testing.T) {
	assertPanics(t, "normalise by zero", func() { NormalizeBy(sampleOf(1), 0) })
}

func TestMeanBoundsProperty(t *testing.T) {
	f := func(vs []float64) bool {
		s := &Sample{}
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				return true
			}
			s.Add(v)
		}
		if s.N() == 0 {
			return true
		}
		m := s.Mean()
		return m >= s.Min()-1e-9 && m <= s.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringFormat(t *testing.T) {
	if got := sampleOf(1, 3).String(); got != "2.000 ± 1.414" {
		t.Errorf("String = %q", got)
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestQuantile(t *testing.T) {
	s := sampleOf(4, 1, 3, 2) // unsorted on purpose
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25},
	}
	for _, c := range cases {
		if got := s.Quantile(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := sampleOf(7).Quantile(0.5); got != 7 {
		t.Errorf("single-observation Quantile = %v, want 7", got)
	}
	var empty Sample
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	assertPanics(t, "Quantile(-0.1)", func() { s.Quantile(-0.1) })
	assertPanics(t, "Quantile(1.1)", func() { s.Quantile(1.1) })
	assertPanics(t, "Quantile(NaN)", func() { s.Quantile(math.NaN()) })
}

func TestQuantileDoesNotMutate(t *testing.T) {
	s := sampleOf(3, 1, 2)
	s.Quantile(0.5)
	if vs := s.Values(); vs[0] != 3 || vs[1] != 1 || vs[2] != 2 {
		t.Errorf("Quantile reordered the sample: %v", vs)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(vs []float64, a, b float64) bool {
		s := &Sample{}
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		pa, pb := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if math.IsNaN(pa) || math.IsNaN(pb) {
			return true
		}
		if pa > pb {
			pa, pb = pb, pa
		}
		return s.Quantile(pa) <= s.Quantile(pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	s := sampleOf(0, 1, 2, 3, 4, 4) // range [0,4], two bins
	bins := s.Histogram(2)
	if len(bins) != 2 {
		t.Fatalf("got %d bins, want 2", len(bins))
	}
	// [0,2): {0,1}; [2,4]: {2,3,4,4} — the max lands in the closed top bin.
	if bins[0].Count != 2 || bins[1].Count != 4 {
		t.Errorf("bin counts = %d/%d, want 2/4", bins[0].Count, bins[1].Count)
	}
	if bins[0].Lo != 0 || bins[0].Hi != 2 || bins[1].Lo != 2 || bins[1].Hi != 4 {
		t.Errorf("bin edges wrong: %+v", bins)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var empty Sample
	if got := empty.Histogram(4); got != nil {
		t.Errorf("empty Histogram = %v, want nil", got)
	}
	constant := sampleOf(5, 5, 5)
	bins := constant.Histogram(3)
	if len(bins) != 1 || bins[0].Count != 3 || bins[0].Lo != 5 || bins[0].Hi != 5 {
		t.Errorf("constant Histogram = %+v", bins)
	}
	assertPanics(t, "Histogram(0)", func() { sampleOf(1).Histogram(0) })
}

func TestHistogramCountsAllProperty(t *testing.T) {
	f := func(vs []float64, n uint8) bool {
		bins := int(n%8) + 1
		s := &Sample{}
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				return true
			}
			s.Add(v)
		}
		total := 0
		for _, b := range s.Histogram(bins) {
			total += b.Count
		}
		return total == s.N()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFormatHistogram(t *testing.T) {
	got := FormatHistogram(sampleOf(0, 1, 2, 3, 4, 4).Histogram(2))
	if got != "[0,2):2 [2,4]:4" {
		t.Errorf("FormatHistogram = %q", got)
	}
	if FormatHistogram(nil) != "" {
		t.Error("FormatHistogram(nil) not empty")
	}
}
