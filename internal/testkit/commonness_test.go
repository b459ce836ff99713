package testkit_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"chameleon/internal/gen"
	"chameleon/internal/privacy"
	"chameleon/internal/testkit"
)

// requireSameBits fails unless privacy.CommonnessWorkers on workers
// goroutines (1 is privacy.Commonness) and the all-pairs reference agree
// bit for bit on every value. A NaN (from a NaN or infinite input)
// matches any NaN: which operand's sign and payload a NaN result carries
// depends on the operand order the compiler picks, not on the algorithm.
func requireSameBits(t *testing.T, values []float64, theta float64, workers int) {
	t.Helper()
	got := privacy.CommonnessWorkers(values, theta, workers)
	want := testkit.NaiveCommonness(values, theta)
	if len(got) != len(want) {
		t.Fatalf("θ=%v, %d workers: %d outputs, want %d", theta, workers, len(got), len(want))
	}
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("θ=%v, %d workers: commonness[%d] (value %v) = %v (%#x), reference %v (%#x)",
				theta, workers, i, values[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
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

// TestCommonnessMatchesNaive pins privacy.Commonness to the all-pairs
// loop: the graph shapes the benchmark anonymizes, on the bandwidth the
// anonymizer uses, and the corner cases of the distinct-value table.
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
		requireSameBits(t, values, dblp.DegreeStdDev(), 1)
	})
	t.Run("brightkite-1.8k", func(t *testing.T) {
		values := brightkite.ExpectedDegrees()
		if d := distinctCount(values); d != len(values) {
			t.Fatalf("%d distinct of %d values: not all distinct", d, len(values))
		}
		requireSameBits(t, values, brightkite.DegreeStdDev(), 1)
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
				requireSameBits(t, values, theta, 1)
			}
		})
	}
	t.Run("empty", func(t *testing.T) { requireSameBits(t, nil, 1, 1) })
}

// TestCommonnessWorkers: sharing the four-row kernel groups out over any
// number of goroutines — fewer than, as many as and more than there are
// groups, and 0 for GOMAXPROCS — leaves every sum bit-identical to the
// all-pairs loop, for D = 1, 3, 4, 5 and n distinct values, NaN and
// signed zeros included.
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
		// +0 and -0 share a slot; each NaN is its own.
		{"nan-signed-zeros", 6, []float64{0, negZero, math.NaN(), 1, negZero, math.NaN(), 0, 2.5, 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// A map keeps every NaN key apart and merges ±0, as
			// commonness's slots do.
			if d := distinctCount(c.values); d != c.d {
				t.Fatalf("%d distinct values, want %d", d, c.d)
			}
			for _, workers := range []int{0, 1, 2, 3, 8, 64} {
				for _, theta := range []float64{1, 0.5, 1e-3, 0, math.NaN()} {
					requireSameBits(t, c.values, theta, workers)
				}
			}
		})
	}
}

// FuzzCommonness requires bit equality with the all-pairs loop on value
// sets built as small integers over a fuzzed quantum, so that duplicates
// (and, for a zero quantum, infinities and NaN) are common, with the rows
// shared out over a fuzzed 0..16 goroutines.
func FuzzCommonness(f *testing.F) {
	f.Add([]byte{1, 2, 2, 3, 1, 1, 250}, 1.0, 1.0, uint8(1))
	f.Add([]byte{0, 0, 0, 0, 0}, 3.0, 0.0, uint8(2))
	f.Add([]byte{5, 6, 5, 128, 127}, 0.0, 2.0, uint8(3))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1}, 0.25, math.NaN(), uint8(0))
	f.Add([]byte{0, 1}, -4.0, 1e-9, uint8(16))
	f.Fuzz(func(t *testing.T, raw []byte, quantum, theta float64, workers uint8) {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		values := make([]float64, len(raw))
		for i, b := range raw {
			values[i] = float64(int8(b)) / quantum
		}
		requireSameBits(t, values, theta, int(workers%17))
	})
}
