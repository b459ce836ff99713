// Package truncnorm samples the noise distribution R(sigma) used by the
// paper's perturbation schemes: the absolute value of a normal variable
// with mean 0 and standard deviation sigma, truncated to [0, 1]. Its
// density is proportional to the half-normal density on [0, 1].
package truncnorm

import (
	"math"
	"math/rand/v2"

	"chameleon/internal/portable"
)

// Sample draws one value from R(sigma): |N(0, sigma^2)| truncated to [0,1].
// sigma <= 0 returns 0 (a degenerate, noise-free draw).
func Sample(rng *rand.Rand, sigma float64) float64 {
	if sigma <= 0 || math.IsNaN(sigma) {
		return 0
	}
	// Rejection from the half-normal. Acceptance probability is
	// P(|N(0,sigma^2)| <= 1) = erf(1/(sigma*sqrt(2))), which for the large
	// sigma regime can be small, so fall back to inverse-CDF sampling when
	// sigma is large.
	if sigma < 2 {
		for i := 0; i < 64; i++ {
			x := math.Abs(rng.NormFloat64() * sigma)
			if x <= 1 {
				return x
			}
		}
		// Extremely unlikely for sigma < 2; fall through to inverse CDF.
	}
	return inverseCDF(rng.Float64(), sigma)
}

// inverseCDF inverts the truncated half-normal CDF
// F(x) = erf(x/(sigma*sqrt2)) / erf(1/(sigma*sqrt2)) by bisection.
func inverseCDF(u, sigma float64) float64 {
	z := math.Erf(1 / (sigma * math.Sqrt2))
	if z <= 0 {
		// sigma so large the density is effectively uniform on [0,1].
		return u
	}
	target := u * z
	lo, hi := 0.0, 1.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if math.Erf(mid/(sigma*math.Sqrt2)) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Mean returns E[R(sigma)], the mean of the [0,1]-truncated half-normal.
func Mean(sigma float64) float64 {
	if sigma <= 0 {
		return 0
	}
	// E[X] = sigma*sqrt(2/pi)*(1 - exp(-1/(2 sigma^2))) / erf(1/(sigma sqrt2))
	z := math.Erf(1 / (sigma * math.Sqrt2))
	if z == 0 {
		return 0.5
	}
	return sigma * math.Sqrt(2/math.Pi) * (1 - portable.Exp(-1/(2*sigma*sigma))) / z
}
