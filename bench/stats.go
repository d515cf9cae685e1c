package main

import (
	"cmp"
	"math"
	"slices"
)

// percentile returns the exact nearest-rank p-th percentile of sorted: the
// smallest sample with at least p% of the samples at or below it.
func percentile[T cmp.Ordered](sorted []T, p float64) T {
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// quartiles returns the first quartile, median and third quartile of xs,
// interpolated as Python's statistics.quantiles(xs, n=4) does (its default
// "exclusive" method), so spreads match those computed from the same runs
// elsewhere. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
