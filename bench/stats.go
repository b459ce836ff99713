package main

import "slices"

// quartiles returns the first quartile, the median and the third quartile
// of xs by the same rule as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so the spreads printed here match the ones computed
// from the JSON results. A single value is its own quartiles; xs must not
// be empty.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// median returns the middle of xs (the mean of the two middle values when
// len(xs) is even); xs must not be empty.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// tailBasisPoints are the candidate tail percentiles in hundredths of a
// percent (p99.99 down to p50), highest first. Integers keep the rank
// arithmetic exact at the boundaries.
var tailBasisPoints = []int{9999, 9990, 9900, 9000, 5000}

// rank is the 1-based nearest-rank position of the percentile bp (in
// hundredths of a percent) among n sorted samples.
func rank(bp, n int) int { return max((bp*n+9999)/10000, 1) }

// tail returns the highest percentile of tailBasisPoints that has at least
// ten samples beyond it, with its value by the nearest-rank rule. ok is
// false when even the median has fewer than ten samples beyond it: a tail
// read off so few samples would be noise.
func tail(xs []float64) (pct, value float64, ok bool) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	for _, bp := range tailBasisPoints {
		if r := rank(bp, n); n-r >= 10 {
			return float64(bp) / 100, s[r-1], true
		}
	}
	return 0, 0, false
}

// percentile returns the bp-th percentile of xs (bp in hundredths of a
// percent) by the nearest-rank rule, or 0 for an empty slice.
func percentile(xs []float64, bp int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(bp, len(s))-1]
}
