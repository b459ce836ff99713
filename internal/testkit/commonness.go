package testkit

import "math"

// NaiveCommonness is the all-pairs reference for privacy.Commonness: one
// kernel evaluation per ordered pair of values, n² in all, summed over the
// population in input order. privacy.Commonness, a fast Gauss transform,
// must stay within privacy.CommonnessRelErr of it, plus the n·2⁻⁵³ of this
// loop's own summation rounding, and match its NaN, ±Inf and zero results.
//
// The explicit conversion rounds each product before it is added. On amd64
// at the default GOAMD64=v1 the compiler never fuses a multiply-add, so the
// conversion changes no instruction there; on targets that do fuse (arm64,
// GOAMD64=v3) it keeps the reference the same function everywhere.
func NaiveCommonness(values []float64, theta float64) []float64 {
	n := len(values)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	if theta <= 0 || math.IsNaN(theta) {
		// Degenerate kernel: commonness is the exact-match count.
		counts := make(map[float64]float64, n)
		for _, v := range values {
			counts[v]++
		}
		for i, v := range values {
			out[i] = counts[v]
		}
		return out
	}
	norm := 1 / (theta * math.Sqrt(2*math.Pi))
	inv2t2 := 1 / (2 * theta * theta)
	for i, w := range values {
		var c float64
		for _, x := range values {
			d := w - x
			c += float64(norm * math.Exp(-d*d*inv2t2))
		}
		out[i] = c
	}
	return out
}
