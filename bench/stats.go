package main

import (
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a reported percentile.
const tailSamples = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tail reports the want-th percentile when at least tailSamples samples lie
// beyond it, and otherwise the highest percentile that has: a p95 read off
// 40 samples is two outliers, not a tail. It returns the value, the
// percentile actually used, and the sample count. With too few samples for
// any tail it falls back to the median.
func tail(samples []float64, want float64) (value, used float64, n int) {
	n = len(samples)
	if n == 0 {
		return 0, 0, 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(want / 100 * float64(n)))
	if rank > n-tailSamples {
		rank = n - tailSamples
	}
	if mid := (n + 1) / 2; rank < mid {
		rank = mid
	}
	return sorted[rank-1], 100 * float64(rank) / float64(n), n
}

// median of an even count is the mean of the middle two, so that two
// set-ups report their midpoint and not the quicker one.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return (sorted[(n-1)/2] + sorted[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// ratio is a/b, and 0 when b is 0 (an idle layer has no ratio).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
