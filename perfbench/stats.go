package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// samples collects latency observations, with the time each completed,
// from concurrent load goroutines.
type samples struct {
	mu sync.Mutex
	d  []time.Duration
	at []time.Time
}

func (s *samples) add(d time.Duration) {
	now := time.Now()
	s.mu.Lock()
	s.d = append(s.d, d)
	s.at = append(s.at, now)
	s.mu.Unlock()
}

// summary returns the distribution of everything added so far.
func (s *samples) summary() summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return summarize(s.d)
}

// windows splits the samples that completed in [t0, t0+n*w) into n
// consecutive windows of length w.
func (s *samples) windows(t0 time.Time, w time.Duration, n int) []window {
	s.mu.Lock()
	byWindow := make([][]time.Duration, n)
	for i, at := range s.at {
		if k := int(at.Sub(t0) / w); at.Sub(t0) >= 0 && k < n {
			byWindow[k] = append(byWindow[k], s.d[i])
		}
	}
	s.mu.Unlock()
	out := make([]window, n)
	for k, d := range byWindow {
		out[k] = window{summarize(d), w}
	}
	return out
}

// window is the part of a run's samples that completed in one stretch of
// time d.
type window struct {
	s summary
	d time.Duration
}

func (w window) rate() float64 { return float64(w.s.n()) / w.d.Seconds() }

// windowMedians reduces per-window p50, p90 and rate to their medians,
// which a burst of contention from outside the benchmark in one window
// cannot move far.
func windowMedians(ws []window) (p50, p90, rate float64) {
	var a, b, c []float64
	for _, w := range ws {
		a = append(a, us(w.s.pct(0.5)))
		b = append(b, us(w.s.pct(0.9)))
		c = append(c, w.rate())
	}
	return median(a), median(b), median(c)
}

// summary is a latency distribution reduced to its sample count and
// nearest-rank percentiles.
type summary struct {
	sorted []time.Duration
}

func summarize(d []time.Duration) summary {
	c := append([]time.Duration(nil), d...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return summary{sorted: c}
}

// n is the number of samples.
func (s summary) n() int { return len(s.sorted) }

// pct returns the nearest-rank q-quantile (0 < q <= 1): the smallest sample
// with at least q of all samples at or below it. An empty summary yields 0.
func (s summary) pct(q float64) time.Duration {
	if len(s.sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(s.sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s.sorted) {
		rank = len(s.sorted) - 1
	}
	return s.sorted[rank]
}

// supports reports whether the q-quantile has at least ten samples beyond
// it, the least a tail percentile needs to mean anything.
func (s summary) supports(q float64) bool {
	return float64(len(s.sorted))*(1-q) >= 10
}

// us converts a duration to microseconds with sub-microsecond digits kept.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// describe renders p50/p90 with the sample count, for the report rows.
func (s summary) describe() string {
	return fmt.Sprintf("n=%d p50=%.1fus p90=%.1fus", s.n(), us(s.pct(0.5)), us(s.pct(0.9)))
}

// median of a float slice (0 when empty).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}
