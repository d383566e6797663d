package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile
// for it to be reported (choosing-metrics: "the highest percentile that
// has at least ten samples beyond it"). For p95 that is 200 samples.
const minBeyond = 10

// samples collects latencies (or any per-op quantity) of one population.
type samples []float64

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// median returns the middle value (mean of the two middle values for an
// even count); NaN for an empty population.
func (s samples) median() float64 {
	v := s.sorted()
	n := len(v)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return v[n/2]
	default:
		return (v[n/2-1] + v[n/2]) / 2
	}
}

// percentile returns the nearest-rank q-quantile (0 < q < 1). ok is
// false when fewer than minBeyond samples lie beyond it, in which case
// the value is still the nearest-rank estimate but the caller must flag
// it: p95 under 200 samples is a tail estimate from under ten points.
func (s samples) percentile(q float64) (v float64, ok bool) {
	sv := s.sorted()
	n := len(sv)
	if n == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sv[rank-1], n-rank >= minBeyond
}

func (s samples) sum() float64 {
	var t float64
	for _, x := range s {
		t += x
	}
	return t
}

// ratio is a/b, 0 when b is 0: counters of a layer a workload bypasses
// stay reportable.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
