// Package stats provides the small set of summary statistics the experiment
// harness reports: mean, geometric mean, min/max, percentiles, and variance.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs, which must all be positive.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: geomean of non-positive value %v", x)
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs))), nil
}

// Min returns the minimum of xs (0 for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. The input is not modified (a copy is
// sorted); hot paths that own their buffer should use PercentileInPlace.
func Percentile(xs []float64, p float64) (float64, error) {
	return PercentileInPlace(append([]float64(nil), xs...), p)
}

// PercentileInPlace is Percentile without the defensive copy: it sorts xs in
// place, so callers can reuse one scratch buffer across calls instead of
// allocating per percentile query.
func PercentileInPlace(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: percentile of empty slice")
	}
	if math.IsNaN(p) || p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of [0,100]", p)
	}
	sort.Float64s(xs)
	if len(xs) == 1 {
		return xs[0], nil
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return xs[lo], nil
	}
	frac := rank - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac, nil
}

// NearestRankInPlace sorts xs in place and returns the p-th percentile under
// the nearest-rank convention the simulator's latency reports use
// (index int(p/100 * (n-1)) of the sorted slice, no interpolation). It
// returns the zero value for empty input and clamps p to [0, 100], so
// report paths can call it without an error branch.
func NearestRankInPlace[T cmp.Ordered](xs []T, p float64) T {
	var zero T
	if len(xs) == 0 {
		return zero
	}
	if math.IsNaN(p) || p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	slices.Sort(xs)
	return xs[int(p/100*float64(len(xs)-1))]
}
