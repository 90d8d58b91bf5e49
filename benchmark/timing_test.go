package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.1, 1.4}, {0.9, 4.6}, {1, 5}, {-1, 1}, {2, 5},
	} {
		if got := quantile(s, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty sample should yield NaN")
	}
}

func TestSummarizeAndRuleTime(t *testing.T) {
	// Unsorted input, 100 samples 1..100.
	var s []float64
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	sum := summarize(s)
	if sum.N != 100 || sum.Min != 1 || math.Abs(sum.Median-50.5) > 1e-12 {
		t.Fatalf("summary %+v", sum)
	}
	if s[0] != 100 {
		t.Fatal("summarize sorted its argument in place")
	}
	if math.Abs(sum.RuleTime()-sum.P10) > 0 {
		t.Errorf("100 samples: rule time %v, want the p10 %v", sum.RuleTime(), sum.P10)
	}
	few := summarize([]float64{3, 1, 2, 5, 4})
	if few.RuleTime() != 1 {
		t.Errorf("5 samples: rule time %v, want the fastest repetition", few.RuleTime())
	}
}

func TestDriveCountsOpsAndAllocs(t *testing.T) {
	var keep [][]byte
	calls := 0
	r := drive(3, 10, time.Millisecond, func(int) {
		calls++
		keep = append(keep[:0], make([]byte, 64))
	})
	if calls < 3+10*minSamplesForDecile {
		t.Errorf("%d calls, want warm-up plus at least %d batches", calls, minSamplesForDecile)
	}
	if r.NsPerOp <= 0 || r.AllocsPerOp < 0.9 || r.AllocsPerOp > 1.5 {
		t.Errorf("drive result %+v, want about one allocation per op", r)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 2, Parent: 0, Name: "b", Start: ms(30), End: ms(60)},              // overlaps a
		{ID: 3, Parent: 1, Name: "a.child", Start: ms(15), End: ms(20)},        //
		{ID: 4, Parent: 0, Lane: 1, Name: "worker", Start: ms(0), End: ms(90)}, // other lane
		{ID: 5, Parent: 0, Name: "late", Start: ms(90), End: ms(120)},          // clipped to parent
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{0: ms(40), 1: ms(25), 2: ms(30), 3: ms(5), 4: ms(90), 5: ms(30)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self %v, want %v", id, self[id], w)
		}
	}
	// Lane-0 self times of properly nested spans sum to the root.
	nested := spans[:4]
	nested[2].Start = ms(40)
	var sum time.Duration
	for _, d := range selfByName(nested) {
		sum += d
	}
	if sum != ms(100) {
		t.Errorf("nested self times sum to %v, want the root's 100ms", sum)
	}
}

func TestRecorderOffIsInert(t *testing.T) {
	var nilRec *Recorder
	if id := nilRec.Begin(-1, 0, "x"); id != -1 {
		t.Errorf("nil recorder returned id %d", id)
	}
	nilRec.End(-1)
	off := newRecorder(false)
	off.Do(-1, "x", func(id int) {
		if id != -1 {
			t.Errorf("disabled recorder returned id %d", id)
		}
	})
	if len(off.Spans()) != 0 {
		t.Error("disabled recorder kept spans")
	}
	on := newRecorder(true)
	on.Do(-1, "outer", func(id int) { on.Do(id, "inner", func(int) {}) })
	open := on.Begin(-1, 0, "never closed")
	_ = open
	if got := on.Spans(); len(got) != 2 || got[1].Parent != got[0].ID {
		t.Errorf("spans %+v, want outer and its inner child only", got)
	}
}
