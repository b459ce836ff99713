package testkit

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"chameleon/internal/privacy"
	"chameleon/internal/truncnorm"
	"chameleon/internal/uncertain"
)

// gofSamples is the sample size of the distribution-level tests: large
// enough that the asymptotic chi-square/KS approximations are excellent,
// small enough to keep the suite fast.
const gofSamples = 20000

// truncCDF is the analytic CDF of the [0,1]-truncated half-normal,
// F(x) = erf(x/(sigma*sqrt2)) / erf(1/(sigma*sqrt2)).
func truncCDF(sigma float64) func(float64) float64 {
	z := math.Erf(1 / (sigma * math.Sqrt2))
	return func(x float64) float64 {
		switch {
		case x <= 0:
			return 0
		case x >= 1:
			return 1
		case z <= 0:
			return x // sigma so large the law is ~uniform
		}
		return math.Erf(x/(sigma*math.Sqrt2)) / z
	}
}

// TestTruncnormKS validates truncnorm.Sample against the analytic CDF
// with a Kolmogorov–Smirnov test, across sigmas covering the rejection
// path (sigma < 2), the inverse-CDF fallback (sigma >= 2), and the
// near-degenerate small-sigma regime.
func TestTruncnormKS(t *testing.T) {
	for _, sigma := range []float64{0.05, 0.3, 1, 3} {
		sigma := sigma
		t.Run(fmt.Sprintf("sigma=%v", sigma), func(t *testing.T) {
			t.Parallel()
			cdf := truncCDF(sigma)
			err := RetryGOF(fmt.Sprintf("truncnorm KS sigma=%v", sigma), func(seed uint64) float64 {
				rng := rand.New(rand.NewPCG(seed, 0xd15714b))
				xs := make([]float64, gofSamples)
				for i := range xs {
					xs[i] = truncnorm.Sample(rng, sigma)
				}
				_, p := KolmogorovSmirnov(xs, cdf)
				return p
			})
			if err != nil {
				t.Error(err)
			}
		})
	}
}

// TestTruncnormMean cross-checks the closed-form truncnorm.Mean against a
// numerical integral of the survival function, E[X] = integral of
// (1 - F(x)) over [0,1]. Deterministic — no sampling involved.
func TestTruncnormMean(t *testing.T) {
	for _, sigma := range []float64{0.05, 0.3, 1, 3, 10} {
		cdf := truncCDF(sigma)
		const steps = 1 << 16
		h := 1.0 / steps
		integral := 0.0
		for i := 0; i < steps; i++ {
			x := (float64(i) + 0.5) * h
			integral += (1 - cdf(x)) * h
		}
		if err := CheckClose(fmt.Sprintf("Mean(%v)", sigma),
			truncnorm.Mean(sigma), integral, 1e-8); err != nil {
			t.Error(err)
		}
	}
}

// sampleWorlds draws gofSamples worlds from g with the threshold sampler
// and returns per-edge presence counts.
func sampleWorlds(g *uncertain.Graph, seed uint64) []int {
	s := g.Sampler()
	pcg := rand.NewPCG(seed, 0x5a1ad)
	counts := make([]int, g.NumEdges())
	var w uncertain.World
	for i := 0; i < gofSamples; i++ {
		s.SampleInto(&w, pcg)
		for j := range counts {
			if w.Present(j) {
				counts[j]++
			}
		}
	}
	return counts
}

// TestWorldSamplerMarginals checks that the world sampler produces the
// right per-edge Bernoulli marginals on every sampling-corpus graph:
// a pooled chi-square over the well-populated edges, exact checks for
// pinned edges, and Chernoff-bounded count caps for edges too rare for a
// chi-square cell.
func TestWorldSamplerMarginals(t *testing.T) {
	for _, cg := range SamplingCorpus() {
		cg := cg
		t.Run(cg.Name+"/default", func(t *testing.T) {
			t.Parallel()
			g := cg.G
			// Hard structural checks on the first pinned seed: pinned
			// edges are deterministic, rare edges Chernoff-capped (tail
			// < 1e-9 each, far below the suite budget).
			counts := sampleWorlds(g, gofSeeds[0])
			chiEdges := 0
			for j, c := range counts {
				p := g.Edge(j).P
				switch {
				case p <= 0:
					if c != 0 {
						t.Errorf("edge %d has p=0 but appeared %d times", j, c)
					}
				case p >= 1:
					if c != gofSamples {
						t.Errorf("edge %d has p=1 but appeared only %d/%d times", j, c, gofSamples)
					}
				case gofSamples*math.Min(p, 1-p) < 25:
					rare, rareP := c, p
					if p > 0.5 {
						rare, rareP = gofSamples-c, 1-p
					}
					if maxC := RareCountMax(rareP, gofSamples); rare > maxC {
						t.Errorf("edge %d (p=%v): rare-side count %d exceeds Chernoff cap %d",
							j, p, rare, maxC)
					}
				default:
					chiEdges++
				}
			}
			if chiEdges == 0 {
				return
			}
			// Marginal GOF on the well-populated edges: each edge's
			// standardized count z_j^2 is ~chi-square(1), and edges are
			// independent, so the sum is ~chi-square(chiEdges).
			err := RetryGOF("marginals "+cg.Name, func(seed uint64) float64 {
				cs := sampleWorlds(g, seed)
				var stat float64
				for j, c := range cs {
					p := g.Edge(j).P
					if p <= 0 || p >= 1 || gofSamples*math.Min(p, 1-p) < 25 {
						continue
					}
					z := (float64(c) - gofSamples*p) / math.Sqrt(gofSamples*p*(1-p))
					stat += z * z
				}
				return ChiSquareTail(stat, chiEdges)
			})
			if err != nil {
				t.Error(err)
			}
		})
	}
}

// TestWorldSamplerPairwiseIndependence runs 2x2 chi-square independence
// checks on edge pairs sharing one low probability, across two low
// probabilities, and among high-probability edges — a correlation bug in
// the per-edge draw stream would show up here, not in the marginals.
func TestWorldSamplerPairwiseIndependence(t *testing.T) {
	var skip CorpusGraph
	for _, cg := range SamplingCorpus() {
		if cg.Name == "skipclasses" {
			skip = cg
		}
	}
	if skip.G == nil {
		t.Fatal("sampling corpus lost its skipclasses graph")
	}
	g := skip.G
	// Locate representative edge pairs by probability.
	firstTwo := func(p float64) [2]int {
		out := [2]int{-1, -1}
		for j := 0; j < g.NumEdges(); j++ {
			if g.Edge(j).P == p {
				if out[0] < 0 {
					out[0] = j
				} else if out[1] < 0 {
					out[1] = j
					break
				}
			}
		}
		return out
	}
	pairs := map[string][2]int{
		"same-class-0.05": firstTwo(0.05),
		"same-class-0.2":  firstTwo(0.2),
		"dense-0.7":       firstTwo(0.7),
		"cross-class":     {firstTwo(0.05)[0], firstTwo(0.2)[0]},
	}
	for name, pr := range pairs {
		if pr[0] < 0 || pr[1] < 0 {
			t.Fatalf("%s: pair not found in skipclasses graph", name)
		}
	}
	for name, pr := range pairs {
		name, pr := name, pr
		t.Run(name+"/default", func(t *testing.T) {
			t.Parallel()
			pa, pb := g.Edge(pr[0]).P, g.Edge(pr[1]).P
			err := RetryGOF("independence "+name, func(seed uint64) float64 {
				s := g.Sampler()
				pcg := rand.NewPCG(seed, 0x1d3)
				var w uncertain.World
				var obs [4]float64
				for i := 0; i < gofSamples; i++ {
					s.SampleInto(&w, pcg)
					k := 0
					if w.Present(pr[0]) {
						k |= 1
					}
					if w.Present(pr[1]) {
						k |= 2
					}
					obs[k]++
				}
				exp := [4]float64{
					gofSamples * (1 - pa) * (1 - pb),
					gofSamples * pa * (1 - pb),
					gofSamples * (1 - pa) * pb,
					gofSamples * pa * pb,
				}
				_, p, err := ChiSquare(obs[:], exp[:], 0)
				if err != nil {
					t.Fatal(err)
				}
				return p
			})
			if err != nil {
				t.Error(err)
			}
		})
	}
}

// TestPoissonBinomialMatchesConvolution cross-checks internal/privacy's
// sequential DP against this package's independent divide-and-conquer
// convolution. Deterministic.
func TestPoissonBinomialMatchesConvolution(t *testing.T) {
	cases := [][]float64{
		{},
		{0.3},
		{0, 1, 0.5},
		{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		{1e-6, 0.999999, 0.5, 0.25, 0.75},
	}
	// Add every corpus vertex's incident-probability vector.
	for _, cg := range Corpus() {
		var buf []float64
		for v := 0; v < cg.G.NumNodes(); v++ {
			buf = cg.G.IncidentProbs(uncertain.NodeID(v), buf[:0])
			cases = append(cases, append([]float64(nil), buf...))
		}
	}
	for ci, probs := range cases {
		got := privacy.DegreeDistribution(probs)
		want := PoissonBinomial(probs)
		if len(got) != len(want) {
			t.Fatalf("case %d: length %d vs %d", ci, len(got), len(want))
		}
		var gSum, wSum float64
		for j := range got {
			if err := CheckClose(fmt.Sprintf("case %d P(deg=%d)", ci, j),
				got[j], want[j], 1e-12); err != nil {
				t.Error(err)
			}
			gSum += got[j]
			wSum += want[j]
		}
		if math.Abs(gSum-1) > 1e-12 || math.Abs(wSum-1) > 1e-12 {
			t.Errorf("case %d: distributions sum to %v (DP) and %v (D&C), want 1", ci, gSum, wSum)
		}
	}
}

// TestSampledDegreesMatchPoissonBinomial closes the loop between the
// world sampler and the privacy machinery: the empirical degree
// distribution of the star6 hub across sampled worlds must match its
// Poisson-binomial law (chi-square, all expected cells >= 25 by corpus
// construction).
func TestSampledDegreesMatchPoissonBinomial(t *testing.T) {
	var star CorpusGraph
	for _, cg := range Corpus() {
		if cg.Name == "star6" {
			star = cg
		}
	}
	if star.G == nil {
		t.Fatal("corpus lost its star6 graph")
	}
	g := star.G
	const hub = uncertain.NodeID(0)
	dist := privacy.DegreeDistribution(g.IncidentProbs(hub, nil))
	exp := make([]float64, len(dist))
	for j, p := range dist {
		exp[j] = gofSamples * p
		if exp[j] < 25 {
			t.Fatalf("expected cell %d = %v < 25; corpus no longer suits this test", j, exp[j])
		}
	}
	err := RetryGOF("sampled hub degrees", func(seed uint64) float64 {
		s := g.Sampler()
		pcg := rand.NewPCG(seed, 0xde9)
		var w uncertain.World
		obs := make([]float64, len(dist))
		for i := 0; i < gofSamples; i++ {
			s.SampleInto(&w, pcg)
			obs[w.Degree(hub)]++
		}
		_, p, err := ChiSquare(obs, exp, 0)
		if err != nil {
			t.Fatal(err)
		}
		return p
	})
	if err != nil {
		t.Error(err)
	}
}
