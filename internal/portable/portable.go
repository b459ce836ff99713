// Package portable computes e^x and log₂ x with the same bits on every
// host. The standard library's math.Exp takes an FMA path on amd64 CPUs
// that have AVX and FMA, and runs assembly of its own on arm64, so its
// last bit depends on where a run happens. These functions are the
// standard library's pure-Go algorithms (FreeBSD's e_exp.c and e_log.c),
// with every product that feeds an addition wrapped in float64(), which
// the Go spec says must round and so forbids a fused multiply-add. On
// amd64 at the default GOAMD64=v1, Exp is bit-identical to the standard
// library's pure-Go exp, and Log2 to its log2 over the pure-Go log.
package portable

import "math"

// Exp returns e**x, within 1 ulp. Exp(+Inf) = +Inf, Exp(NaN) = NaN,
// and very large (small) x overflow to +Inf (underflow to 0).
func Exp(x float64) float64 {
	const (
		ln2Hi = 6.93147180369123816490e-01
		ln2Lo = 1.90821492927058770002e-10
		log2e = 1.44269504088896338700e+00

		overflow  = 7.09782712893383973096e+02
		underflow = -7.45133219101941108420e+02
		nearZero  = 1.0 / (1 << 28) // 2**-28
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > overflow:
		return math.Inf(1)
	case x < underflow:
		return 0
	case -nearZero < x && x < nearZero:
		return 1 + x
	}

	// Reduce: x = k·ln2 + r with |r| ≤ ln2/2, r = hi − lo for extra
	// precision.
	var k int
	switch {
	case x < 0:
		k = int(float64(log2e*x) - 0.5)
	case x > 0:
		k = int(float64(log2e*x) + 0.5)
	}
	hi := x - float64(float64(k)*ln2Hi)
	lo := float64(k) * ln2Lo
	return expmulti(hi, lo, k)
}

// expmulti returns e**r × 2**k where r = hi − lo and |r| ≤ ln2/2.
func expmulti(hi, lo float64, k int) float64 {
	const (
		p1 = 1.66666666666666657415e-01  /* 0x3FC55555; 0x55555555 */
		p2 = -2.77777777770155933842e-03 /* 0xBF66C16C; 0x16BEBD93 */
		p3 = 6.61375632143793436117e-05  /* 0x3F11566A; 0xAF25DE2C */
		p4 = -1.65339022054652515390e-06 /* 0xBEBBBD41; 0xC5D26BF1 */
		p5 = 4.13813679705723846039e-08  /* 0x3E663769; 0x72BEA4D0 */
	)
	r := hi - lo
	t := r * r
	c := r - float64(t*(p1+float64(t*(p2+float64(t*(p3+float64(t*(p4+float64(t*p5)))))))))
	y := 1 - ((lo - float64(r*c)/(2-c)) - hi)
	return math.Ldexp(y, k)
}

// Log2 returns the binary logarithm of x. Exact powers of two give exact
// results. Log2(+Inf) = +Inf, Log2(0) = −Inf, Log2(x < 0) = NaN,
// Log2(NaN) = NaN.
//
// A positive normal finite x takes its exponent and mantissa straight
// from its bits; every other x goes through log2Frexp. Both run the same
// arithmetic on the same operands, so they return the same bits.
func Log2(x float64) float64 {
	const (
		mask  = 0x7ff
		shift = 52
		bias  = 1022
	)
	b := math.Float64bits(x)
	e := int(b>>shift) & mask
	if b>>63 != 0 || e == 0 || e == mask {
		return log2Frexp(x)
	}
	// x = frac · 2**exp with frac in [0.5, 1), as math.Frexp returns it:
	// x's mantissa under 0.5's exponent.
	frac := math.Float64frombits(b&(1<<shift-1) | bias<<shift)
	exp := e - bias
	if frac == 0.5 {
		return float64(exp - 1)
	}
	// log's reduction of frac: math.Frexp(frac) returns frac, 0.
	f1, ki := frac, 0
	if f1 < math.Sqrt2/2 {
		f1 *= 2
		ki--
	}
	return float64(logReduced(f1, ki)*(1/math.Ln2)) + float64(exp)
}

// log2Frexp is Log2 through math.Frexp and log, for every x.
func log2Frexp(x float64) float64 {
	frac, exp := math.Frexp(x)
	// Exact powers of two give an exact answer; do not depend on
	// log(0.5)·(1/ln2) + exp rounding to exp−1.
	if frac == 0.5 {
		return float64(exp - 1)
	}
	return float64(log(frac)*(1/math.Ln2)) + float64(exp)
}

// log returns the natural logarithm of x.
func log(x float64) float64 {
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case x < 0:
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	}

	// Reduce: x = 2**k · f1 with √2/2 ≤ f1 < √2.
	f1, ki := math.Frexp(x)
	if f1 < math.Sqrt2/2 {
		f1 *= 2
		ki--
	}
	return logReduced(f1, ki)
}

// logReduced returns ln(2**ki · f1) for √2/2 ≤ f1 < √2.
func logReduced(f1 float64, ki int) float64 {
	const (
		ln2Hi = 6.93147180369123816490e-01 /* 3fe62e42 fee00000 */
		ln2Lo = 1.90821492927058770002e-10 /* 3dea39ef 35793c76 */
		l1    = 6.666666666666735130e-01   /* 3FE55555 55555593 */
		l2    = 3.999999999940941908e-01   /* 3FD99999 9997FA04 */
		l3    = 2.857142874366239149e-01   /* 3FD24924 94229359 */
		l4    = 2.222219843214978396e-01   /* 3FCC71C5 1D8E78AF */
		l5    = 1.818357216161805012e-01   /* 3FC74664 96CB03DE */
		l6    = 1.531383769920937332e-01   /* 3FC39A09 D078C69F */
		l7    = 1.479819860511658591e-01   /* 3FC2F112 DF3E5244 */
	)
	f := f1 - 1
	k := float64(ki)

	s := f / (2 + f)
	s2 := s * s
	s4 := s2 * s2
	t1 := float64(s2 * (l1 + float64(s4*(l3+float64(s4*(l5+float64(s4*l7)))))))
	t2 := float64(s4 * (l2 + float64(s4*(l4+float64(s4*l6)))))
	R := t1 + t2
	hfsq := float64(0.5 * f * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+R)) + float64(k*ln2Lo))) - f)
}
