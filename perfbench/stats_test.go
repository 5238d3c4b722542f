package main

import (
	"testing"
	"time"
)

func TestPercentilesNearestRank(t *testing.T) {
	var d []time.Duration
	for i := 100; i >= 1; i-- { // unsorted input
		d = append(d, time.Duration(i)*time.Microsecond)
	}
	s := summarize(d)
	if s.n() != 100 {
		t.Fatalf("n = %d, want 100", s.n())
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{
		{0.5, 50 * time.Microsecond},
		{0.9, 90 * time.Microsecond},
		{0.99, 99 * time.Microsecond},
		{0.999, 100 * time.Microsecond},
		{1, 100 * time.Microsecond},
		{0.001, 1 * time.Microsecond},
	} {
		if got := s.pct(c.q); got != c.want {
			t.Errorf("pct(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := summarize(nil).pct(0.5); got != 0 {
		t.Errorf("empty pct = %v, want 0", got)
	}
	if got := summarize([]time.Duration{7}).pct(0.9); got != 7 {
		t.Errorf("single-sample pct = %v, want 7", got)
	}
}

func TestTailSupportNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true},
		{999, 0.99, false},
		{10000, 0.999, true},
		{5000, 0.999, false},
		{20, 0.5, true},
	} {
		s := summarize(make([]time.Duration, c.n))
		if got := s.supports(c.q); got != c.want {
			t.Errorf("n=%d supports(%v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestSamplesConcurrentAdd(t *testing.T) {
	var s samples
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := 0; i < 250; i++ {
				s.add(time.Duration(g*250 + i))
			}
			done <- struct{}{}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	sum := s.summary()
	if sum.n() != 1000 || sum.pct(1) != 999 || sum.pct(0.001) != 0 {
		t.Fatalf("n=%d max=%v min=%v", sum.n(), sum.pct(1), sum.pct(0.001))
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}
