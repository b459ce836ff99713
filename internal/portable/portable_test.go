package portable

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
)

// TestGolden pins the output bits of Exp and Log2 on fixed inputs: special
// cases, both ends of the range, the subnormal edge, exact powers of two,
// and arguments in (−40, 0], where an FMA-path math.Exp differs from the
// pure-Go algorithm in about one result in six. The table was written on
// amd64 and must hold on every GOARCH and CPU.
func TestGolden(t *testing.T) {
	for _, c := range []struct {
		x    float64
		bits uint64
	}{
		{-745.2, 0x0000000000000000},
		{-708.5, 0x000e6cf6d08897ac},
		{-300.25, 0x24dc758233102ace},
		{-40, 0x3c539792499b1a24},
		{-37.5, 0x3c8dd5c566301ec8},
		{-12.345, 0x3ed240572f47cb82},
		{-4.5, 0x3f86c0504695c417},
		{-1, 0x3fd78b56362cef38},
		{-0.5, 0x3fe368b2fc6f960a},
		{-1e-09, 0x3fefffffff768fa1},
		{0, 0x3ff0000000000000},
		{1e-300, 0x3ff0000000000000},
		{0.3, 0x3ff599058c8c1a96},
		{1, 0x4005bf0a8b145769},
		{2.5, 0x40285d6fd931e0bb},
		{10, 0x40d5829dcf950560},
		{100, 0x48f3494a9b171bf5},
		{709.7, 0x7fed75ae7a50ee14},
		{710, 0x7ff0000000000000},
		{math.Inf(-1), 0},
		{math.Inf(1), 0x7ff0000000000000},
	} {
		if got := math.Float64bits(Exp(c.x)); got != c.bits {
			t.Errorf("Exp(%v) = %#016x, want %#016x", c.x, got, c.bits)
		}
	}
	for _, c := range []struct {
		x    float64
		bits uint64
	}{
		{5e-324, 0xc090c80000000000},
		{1e-300, 0xc08f24a09f1a8b89},
		{1e-10, 0xc0409c1165ec0627},
		{0.001, 0xc023ee7b471b3a95},
		{0.25, 0xc000000000000000},
		{0.3, 0xbffbca9c6f53897a},
		{0.5, 0xbff0000000000000},
		{0.7071, 0xbfe0001d03eb60d8},
		{0.9999, 0xbf22e91f92373930},
		{1, 0x0000000000000000},
		{1.5, 0x3fe2b803473f7ad2},
		{3, 0x3ff95c01a39fbd69},
		{10, 0x400a934f0979a371},
		{1e10, 0x40409c1165ec0627},
		{1e300, 0x408f24a09f1a8b89},
		{math.MaxFloat64, 0x4090000000000000},
		{0, 0xfff0000000000000},
		{math.Inf(1), 0x7ff0000000000000},
	} {
		if got := math.Float64bits(Log2(c.x)); got != c.bits {
			t.Errorf("Log2(%v) = %#016x, want %#016x", c.x, got, c.bits)
		}
	}
	if !math.IsNaN(Exp(math.NaN())) || !math.IsNaN(Log2(math.NaN())) || !math.IsNaN(Log2(-1)) {
		t.Error("NaN in, or a negative logarithm argument, must give NaN")
	}
}

// prec is the working precision of the math/big references: enough that
// their own error is far below half an ulp of a float64.
const prec = 256

// bigExp returns e**x to prec bits: the Taylor series of e**(x/2**m) with
// |x/2**m| < 2**-8, squared m times.
func bigExp(x float64) *big.Float {
	m := 0
	for math.Abs(x)/math.Ldexp(1, m) >= 1.0/256 {
		m++
	}
	r := new(big.Float).SetPrec(prec).SetMantExp(new(big.Float).SetFloat64(x), -m)
	sum := new(big.Float).SetPrec(prec).SetInt64(1)
	term := new(big.Float).SetPrec(prec).SetInt64(1)
	for k := int64(1); k < 60; k++ {
		term.Mul(term, r)
		term.Quo(term, new(big.Float).SetInt64(k))
		sum.Add(sum, term)
	}
	for ; m > 0; m-- {
		sum.Mul(sum, sum)
	}
	return sum
}

// bigLnMant returns ln f to prec bits for f in [1, 2):
// 2·atanh((f−1)/(f+1)) by its series.
func bigLnMant(f *big.Float) *big.Float {
	one := new(big.Float).SetPrec(prec).SetInt64(1)
	z := new(big.Float).SetPrec(prec).Sub(f, one)
	z.Quo(z, new(big.Float).SetPrec(prec).Add(f, one))
	z2 := new(big.Float).SetPrec(prec).Mul(z, z)
	sum := new(big.Float).SetPrec(prec)
	pow := new(big.Float).SetPrec(prec).Set(z)
	for k := int64(0); k < 100; k++ { // z² ≤ 1/9: 100 terms pass 2**-256
		sum.Add(sum, new(big.Float).SetPrec(prec).Quo(pow, new(big.Float).SetInt64(2*k+1)))
		pow.Mul(pow, z2)
	}
	return sum.Mul(sum, new(big.Float).SetInt64(2))
}

// bigLn2 is ln 2 to prec bits.
var bigLn2 = bigLnMant(new(big.Float).SetPrec(prec).SetInt64(2))

// bigLog2 returns log₂ x to prec bits for x > 0: x = f·2**e with f in
// [1, 2), so log₂ x = ln f / ln 2 + e.
func bigLog2(x float64) *big.Float {
	f := new(big.Float).SetPrec(prec)
	e := new(big.Float).SetPrec(prec).SetFloat64(x).MantExp(f) // f in [0.5, 1)
	f.SetMantExp(f, 1)
	l := bigLnMant(f)
	l.Quo(l, bigLn2)
	return l.Add(l, new(big.Float).SetPrec(prec).SetInt64(int64(e-1)))
}

// ulps returns how many float64 steps got lies from the exact value want,
// measured in units of the spacing at want's float64 rounding.
func ulps(got float64, want *big.Float) float64 {
	w, _ := want.Float64()
	ulp := math.Nextafter(math.Abs(w), math.Inf(1)) - math.Abs(w)
	d := new(big.Float).SetPrec(prec).Sub(new(big.Float).SetFloat64(got), want)
	df, _ := d.Float64()
	return math.Abs(df) / ulp
}

// TestAgainstBigFloat holds Exp and Log2 to within 1 ulp of 256-bit
// references on random arguments across their normal ranges.
func TestAgainstBigFloat(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0xe4))
	draws := 3000
	if testing.Short() {
		draws = 300
	}
	for i := 0; i < draws; i++ {
		var x float64
		switch i % 3 {
		case 0:
			x = -40 * rng.Float64()
		case 1:
			x = 1416*rng.Float64() - 708
		default:
			x = 8*rng.Float64() - 4
		}
		if u := ulps(Exp(x), bigExp(x)); u > 1 {
			t.Fatalf("Exp(%v) = %v is %.3g ulp from the reference", x, Exp(x), u)
		}
		y := math.Ldexp(1+rng.Float64(), rng.IntN(2000)-1000)
		if u := ulps(Log2(y), bigLog2(y)); u > 1 {
			t.Fatalf("Log2(%v) = %v is %.3g ulp from the reference", y, Log2(y), u)
		}
	}
}

// TestLog2FastPathMatchesFrexp holds Log2's bit-level fast path to the
// math.Frexp path bit for bit on 10⁷ seeded inputs: uniform values in
// (0, 1], where the obfuscation check takes its logarithms, random bit
// patterns, which reach every class of float64, and mantissas within a
// million ulps of √2/2, where the reduction switches branch.
func TestLog2FastPathMatchesFrexp(t *testing.T) {
	const draws = 10_000_000
	rng := rand.New(rand.NewPCG(11, 0x1062))
	sqrtHalf := math.Float64bits(math.Sqrt2 / 2)
	for i := 0; i < draws; i++ {
		var x float64
		switch i % 10 {
		case 0, 1, 2, 3:
			x = 1 - rng.Float64()
		case 4, 5, 6:
			x = math.Float64frombits(rng.Uint64())
		default:
			m := math.Float64frombits(sqrtHalf + uint64(rng.IntN(1<<21)) - 1<<20)
			x = math.Ldexp(m, rng.IntN(2046)-1021)
		}
		if got, want := Log2(x), log2Frexp(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Log2(%v [%#016x]) = %#016x, frexp path %#016x",
				x, math.Float64bits(x), math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestLog2FastPathEdges checks the fast path's boundaries: every power of
// two (exact), 1, the largest finite value, both sides of the smallest
// normal, and the values next to √2/2.
func TestLog2FastPathEdges(t *testing.T) {
	for e := -1074; e <= 1023; e++ {
		if got := Log2(math.Ldexp(1, e)); got != float64(e) {
			t.Errorf("Log2(2**%d) = %v", e, got)
		}
	}
	xs := []float64{
		1,
		math.MaxFloat64,
		0x1p-1022,                       // the smallest normal
		math.Float64frombits(1<<52 - 1), // the largest subnormal
		math.Float64frombits(1<<52 + 1), // just above the smallest normal
		math.Nextafter(1, 0),            // just below 1
		math.Nextafter(1, 2),            // just above 1
		math.Sqrt2 / 2,
		math.Nextafter(math.Sqrt2/2, 0),
		math.Nextafter(math.Sqrt2/2, 1),
		math.Sqrt2,
	}
	for _, x := range xs {
		if got, want := Log2(x), log2Frexp(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Log2(%v) = %#016x, frexp path %#016x", x, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// BenchmarkLog2 times p·log₂p over probabilities in (0, 1], as the
// obfuscation check takes it, through Log2 and through the math.Frexp
// path alone.
func BenchmarkLog2(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	ps := make([]float64, 1024)
	for i := range ps {
		ps[i] = 1 - rng.Float64()
	}
	for _, c := range []struct {
		name string
		log2 func(float64) float64
	}{{"fast", Log2}, {"frexp", log2Frexp}} {
		b.Run(c.name, func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				p := ps[i&1023]
				sum += float64(p * c.log2(p))
			}
			sink = sum
		})
	}
}

var sink float64
