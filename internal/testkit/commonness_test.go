package testkit_test

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"chameleon/internal/gen"
	"chameleon/internal/privacy"
	"chameleon/internal/testkit"
)

// referenceHolds reports whether the all-pairs loop's own arithmetic holds
// at theta: outside the normal range its kernel constants overflow or
// underflow (a self-pair is then 0·∞ = NaN), and the reference stops being
// the kernel sum.
func referenceHolds(theta float64) bool {
	if !(theta > 0) || math.IsInf(theta, 1) {
		return true // counting and the flat kernel: no constant to break
	}
	norm := 1 / (theta * math.Sqrt(2*math.Pi))
	inv2t2 := 1 / (2 * theta * theta)
	return norm < math.Inf(1) && inv2t2 > 0 && inv2t2 < math.Inf(1)
}

// requireWithin fails unless privacy.Commonness agrees with the all-pairs
// reference: NaN, ±Inf and zero results exactly, every other result within
// privacy.CommonnessRelErr plus the reference's n·2⁻⁵³ summation rounding,
// relatively.
func requireWithin(t *testing.T, values []float64, theta float64) {
	t.Helper()
	got := privacy.Commonness(values, theta)
	want := testkit.NaiveCommonness(values, theta)
	if len(got) != len(want) {
		t.Fatalf("θ=%v: %d outputs, want %d", theta, len(got), len(want))
	}
	tol := privacy.CommonnessRelErr + float64(len(values))*0x1p-53
	for i, w := range want {
		g := got[i]
		var ok bool
		switch {
		case math.IsNaN(w):
			ok = math.IsNaN(g)
		case math.IsInf(w, 0) || w == 0:
			ok = g == w
		default:
			ok = math.Abs(g-w) <= tol*math.Abs(w)
		}
		if !ok {
			t.Fatalf("θ=%v: commonness[%d] (value %v) = %v, reference %v (relative error %.3g, bound %.3g)",
				theta, i, values[i], g, w, math.Abs(g-w)/math.Abs(w), tol)
		}
	}
}

func distinctCount(values []float64) int {
	seen := make(map[float64]bool)
	for _, v := range values {
		seen[v] = true
	}
	return len(seen)
}

// TestCommonnessMatchesNaive holds privacy.Commonness to the all-pairs
// loop: the graph shapes the benchmark anonymizes, on the bandwidth the
// anonymizer uses, a heavy tail whose isolated hubs' commonness is little
// more than their own term, and the corner cases of the distinct-value
// table.
func TestCommonnessMatchesNaive(t *testing.T) {
	dblp, err := gen.BarabasiAlbert(3000, 3, gen.DiscreteProbs(
		[]float64{0.13, 0.28, 0.46, 0.64, 0.80},
		[]float64{0.15, 0.23, 0.27, 0.22, 0.13},
	), rand.New(rand.NewPCG(1, 0xa11)))
	if err != nil {
		t.Fatal(err)
	}
	brightkite, err := gen.BarabasiAlbert(1800, 2, gen.SmallProbs(0.29), rand.New(rand.NewPCG(1, 0xa12)))
	if err != nil {
		t.Fatal(err)
	}
	t.Run("dblp-3k", func(t *testing.T) {
		values := dblp.ExpectedDegrees()
		if d := distinctCount(values); d*2 > len(values) {
			t.Fatalf("%d distinct of %d values: not duplicate-heavy", d, len(values))
		}
		requireWithin(t, values, dblp.DegreeStdDev())
	})
	t.Run("brightkite-1.8k", func(t *testing.T) {
		values := brightkite.ExpectedDegrees()
		if d := distinctCount(values); d != len(values) {
			t.Fatalf("%d distinct of %d values: not all distinct", d, len(values))
		}
		requireWithin(t, values, brightkite.DegreeStdDev())
	})
	t.Run("ba-5k-all-distinct", func(t *testing.T) {
		g, err := gen.BarabasiAlbert(5000, 2, gen.UniformProbs(0, 1), rand.New(rand.NewPCG(1, 0xa13)))
		if err != nil {
			t.Fatal(err)
		}
		values := g.ExpectedDegrees()
		if d := distinctCount(values); d != len(values) {
			t.Fatalf("%d distinct of %d values: not all distinct", d, len(values))
		}
		requireWithin(t, values, g.DegreeStdDev())
	})
	t.Run("heavy-tail-hubs", func(t *testing.T) {
		// A Pareto body and five hubs far out in the tail, each alone
		// within many bandwidths: their commonness is their own term plus
		// far-field crumbs, where a relative error shows first.
		rng := rand.New(rand.NewPCG(1, 0xa14))
		values := make([]float64, 2000)
		for i := range values {
			values[i] = 2 / math.Pow(1-rng.Float64(), 1/1.5)
		}
		values = append(values, 400, 900, 2500, 2500.5, 8000)
		var mean, sq float64
		for _, v := range values {
			mean += v
		}
		mean /= float64(len(values))
		for _, v := range values {
			sq += (v - mean) * (v - mean)
		}
		theta := math.Sqrt(sq / float64(len(values)))
		for _, th := range []float64{theta, theta / 50, 1} {
			requireWithin(t, values, th)
		}
	})

	t.Run("ulp-spaced", func(t *testing.T) {
		// Above 2⁵³ floats are 2 apart, so a box centre ρθ = 1.5 right of
		// its first value rounds to 2 right of it, past the box's
		// half-width; the transform then centres the box on the value.
		requireWithin(t, []float64{0x1p53, 0x1p53 + 2, 0x1p53 + 4, 0x1p53 + 8, 0x1p53 + 8}, 3)
	})

	negZero := math.Copysign(0, -1)
	cases := map[string][]float64{
		"all-equal":     {2.5, 2.5, 2.5, 2.5, 2.5, 2.5, 2.5, 2.5},
		"far-outlier":   {1, 1.5, 1, 2, 1.5, 1, 1e6},
		"signed-zeros":  {0, negZero, 1, negZero, 0, 0.5, negZero},
		"zeros-neg1st":  {negZero, 0, negZero, 3},
		"tail-1":        {1},
		"tail-5":        {1, 2, 3, 4, 5, 1, 2},
		"tail-6":        {6, 5, 4, 3, 2, 1, 6, 5, 4},
		"tail-7":        {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.1, 0.7, 0.4, 0.2},
		"non-finite":    {1, math.Inf(1), 2, math.Inf(-1), math.Inf(1), 1},
		"nan-values":    {1, math.NaN(), 1, math.NaN(), 2},
		"huge-spread":   {1e-300, 1e300, -1e300, 1e-300, 0},
		"single-repeat": {7, 7, 7, 8},
	}
	for name, values := range cases {
		t.Run(name, func(t *testing.T) {
			for _, theta := range []float64{1, 0.5, 1e-3, 1e3, 0, negZero, -1, math.NaN(), math.Inf(1)} {
				requireWithin(t, values, theta)
			}
		})
	}
	t.Run("empty", func(t *testing.T) { requireWithin(t, nil, 1) })
}

// TestCommonnessWorkers: commonness depends only on the multiset of
// values, so the anonymizer's workers and the daemon's concurrent jobs all
// get the same bits. Each case runs from 1, 2, 3, 8 and 64 goroutines at
// once, each on its own shuffle of the values, and every result must equal
// the serial run's bit for bit, for D = 1, 3, 4, 5 and n distinct values,
// NaN and signed zeros included.
func TestCommonnessWorkers(t *testing.T) {
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewPCG(3, 0xc0))
	spread := make([]float64, 41)
	for i := range spread {
		spread[i] = 3 * rng.NormFloat64()
	}
	cases := []struct {
		name   string
		d      int
		values []float64
	}{
		{"D=1", 1, []float64{2, 2, 2, 2, 2}},
		{"D=3", 3, []float64{1, 2, 3, 1, 2, 3, 3}},
		{"D=4", 4, []float64{0.5, 1.5, 2.5, 3.5, 0.5}},
		{"D=5", 5, []float64{0, 1, 2, 3, 4, 4, 0}},
		{"D=n", len(spread), spread},
		// +0 and -0 are one value; each NaN is its own.
		{"nan-signed-zeros", 6, []float64{0, negZero, math.NaN(), 1, negZero, math.NaN(), 0, 2.5, 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// A map keeps every NaN key apart and merges ±0, as
			// commonness does.
			if d := distinctCount(c.values); d != c.d {
				t.Fatalf("%d distinct values, want %d", d, c.d)
			}
			for _, theta := range []float64{1, 0.5, 1e-3, 0, math.NaN()} {
				requireWithin(t, c.values, theta)
				serial := privacy.Commonness(c.values, theta)
				for _, workers := range []int{1, 2, 3, 8, 64} {
					var wg sync.WaitGroup
					for w := range workers {
						wg.Add(1)
						go func() {
							defer wg.Done()
							perm := rand.New(rand.NewPCG(uint64(w), 0xc1)).Perm(len(c.values))
							shuffled := make([]float64, len(c.values))
							for i, j := range perm {
								shuffled[i] = c.values[j]
							}
							got := privacy.Commonness(shuffled, theta)
							for i, j := range perm {
								if math.Float64bits(got[i]) != math.Float64bits(serial[j]) {
									t.Errorf("θ=%v, goroutine %d of %d: commonness of value %v = %v, serial run %v",
										theta, w, workers, c.values[j], got[i], serial[j])
									return
								}
							}
						}()
					}
					wg.Wait()
				}
			}
		})
	}
}

// FuzzCommonness holds privacy.Commonness to the all-pairs loop on value
// sets built as small integers over a fuzzed quantum, so that duplicates
// (and, for a zero or tiny quantum, infinities and NaN) are common, at a
// fuzzed bandwidth wherever the reference's own arithmetic holds.
func FuzzCommonness(f *testing.F) {
	f.Add([]byte{1, 2, 2, 3, 1, 1, 250}, 1.0, 1.0)
	f.Add([]byte{0, 0, 0, 0, 0}, 3.0, 0.0)
	f.Add([]byte{5, 6, 5, 128, 127}, 0.0, 2.0)
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1}, 0.25, math.NaN())
	f.Add([]byte{0, 1}, -4.0, 1e-9)
	f.Fuzz(func(t *testing.T, raw []byte, quantum, theta float64) {
		if !referenceHolds(theta) {
			t.Skip("the reference's kernel constants overflow at this bandwidth")
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		values := make([]float64, len(raw))
		for i, b := range raw {
			values[i] = float64(int8(b)) / quantum
		}
		requireWithin(t, values, theta)
	})
}
