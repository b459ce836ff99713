package privacy

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"chameleon/internal/certify"
	"chameleon/internal/gen"
	"chameleon/internal/portable"
	"chameleon/internal/testkit"
	"chameleon/internal/uncertain"
)

// fullDegreeDistribution is the uncut Poisson-binomial DP, each row
// updated downward in place: the reference the cut kernel is held to.
func fullDegreeDistribution(probs []float64) []float64 {
	dist := []float64{1}
	for _, p := range probs {
		dist = append(dist, 0)
		q := 1 - p
		for j := len(dist) - 1; j >= 1; j-- {
			dist[j] = float64(dist[j]*q) + float64(dist[j-1]*p)
		}
		dist[0] *= q
	}
	return dist
}

// checkObfuscationFull is the reference Definition 3 check: every
// vertex's full degree distribution, mass and p log2 p at every degree up
// to max(largest structural degree, largest property value), and the
// entropy of every posterior with mass.
func checkObfuscationFull(pub *uncertain.Graph, property []int, k int) ObfuscationReport {
	n := pub.NumNodes()
	maxW := pub.MaxStructuralDegree()
	for _, w := range property {
		maxW = max(maxW, w)
	}
	mass := make([]float64, maxW+1)
	sumPlogP := make([]float64, maxW+1)
	var probs []float64
	for u := 0; u < n; u++ {
		probs = pub.IncidentProbs(uncertain.NodeID(u), probs[:0])
		for w, p := range fullDegreeDistribution(probs) {
			mass[w] += p
			if p > 0 {
				sumPlogP[w] += float64(p * portable.Log2(p))
			}
		}
	}
	entropy := make([]float64, maxW+1)
	for w := range entropy {
		if mass[w] > 0 {
			entropy[w] = portable.Log2(mass[w]) - sumPlogP[w]/mass[w]
		}
	}
	threshold := portable.Log2(float64(k))
	nonObf := 0
	for _, w := range property {
		w = max(w, 0)
		if mass[w] <= 0 || entropy[w] < threshold {
			nonObf++
		}
	}
	return ObfuscationReport{K: k, EntropyByDegree: entropy, NonObfuscated: nonObf,
		EpsilonTilde: float64(nonObf) / float64(n)}
}

// matchFullCheck returns an error unless CheckObfuscation agrees with the
// reference check: the same non-obfuscated count and ε̃, the same bits of
// H(Y_w) at every property value w, and 0 at every other index up to the
// largest property value.
func matchFullCheck(pub *uncertain.Graph, property []int, k int) error {
	got, err := CheckObfuscation(pub, property, k)
	if err != nil {
		return err
	}
	want := checkObfuscationFull(pub, property, k)
	if got.NonObfuscated != want.NonObfuscated || got.EpsilonTilde != want.EpsilonTilde {
		return fmt.Errorf("k=%d: %d non-obfuscated (eps~ %v), reference %d (%v)",
			k, got.NonObfuscated, got.EpsilonTilde, want.NonObfuscated, want.EpsilonTilde)
	}
	maxW := 0
	isValue := map[int]bool{}
	for _, w := range property {
		maxW = max(maxW, w)
		isValue[max(w, 0)] = true
	}
	if len(got.EntropyByDegree) != maxW+1 {
		return fmt.Errorf("k=%d: %d entropies, want %d", k, len(got.EntropyByDegree), maxW+1)
	}
	for w, h := range got.EntropyByDegree {
		switch {
		case isValue[w] && math.Float64bits(h) != math.Float64bits(want.EntropyByDegree[w]):
			return fmt.Errorf("k=%d: H(Y_%d) = %x, reference %x", k, w, h, want.EntropyByDegree[w])
		case !isValue[w] && h != 0:
			return fmt.Errorf("k=%d: H(Y_%d) = %v at a value no property takes, want 0", k, w, h)
		}
	}
	return nil
}

// edgeProb draws an edge probability that exercises the DP's edges:
// certain presence and absence, the smallest subnormals, probabilities
// one rounding step from 1, and uniform draws.
func edgeProb(rng *rand.Rand) float64 {
	switch rng.IntN(8) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return 0x1p-1074
	case 3:
		return 0x1p-1060
	case 4:
		return 1 - 0x1p-53
	default:
		return rng.Float64()
	}
}

func TestTruncatedDPMatchesFullPrefix(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 11))
		probs := make([]float64, rng.IntN(40))
		for i := range probs {
			probs[i] = edgeProb(rng)
		}
		want := fullDegreeDistribution(probs)
		for maxJ := 0; maxJ <= len(probs)+2; maxJ++ {
			got := degreeDistributionInto(nil, probs, maxJ)
			if len(got) != min(len(probs), maxJ)+1 {
				t.Logf("probs %v cut at %d: %d entries", probs, maxJ, len(got))
				return false
			}
			for j, p := range got {
				if math.Float64bits(p) != math.Float64bits(want[j]) {
					t.Logf("probs %v cut at %d: dist[%d] = %x, full %x", probs, maxJ, j, p, want[j])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckObfuscationMatchesFullCheck(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 12))
		n := 1 + rng.IntN(40)
		g := uncertain.New(n)
		for i := rng.IntN(3 * n); i > 0; i-- {
			u := uncertain.NodeID(rng.IntN(n))
			v := uncertain.NodeID(rng.IntN(n))
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v, edgeProb(rng))
			}
		}
		// The adversary's values: mostly the rounded expected degrees,
		// some below 0 and some past the largest structural degree.
		prop := DegreeProperty(g)
		for v := range prop {
			switch rng.IntN(6) {
			case 0:
				prop[v] = -1 - rng.IntN(3)
			case 1:
				prop[v] = g.MaxStructuralDegree() + 1 + rng.IntN(5)
			}
		}
		if err := matchFullCheck(g, prop, 1+rng.IntN(n)); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckObfuscationMatchesFullCheckEdgeCases(t *testing.T) {
	single := uncertain.New(1)
	isolated := uncertain.New(5)
	isolated.MustAddEdge(1, 3, 0.4)
	certain := uncertain.New(6)
	for i, p := range []float64{0, 1, 1, 0, 1} {
		certain.MustAddEdge(0, uncertain.NodeID(i+1), p)
	}
	subnormal := uncertain.New(4)
	subnormal.MustAddEdge(0, 1, 0x1p-1074)
	subnormal.MustAddEdge(0, 2, 0x1p-1060)
	subnormal.MustAddEdge(1, 2, 0x1p-1074)
	subnormal.MustAddEdge(2, 3, 0.5)
	for _, c := range []struct {
		name string
		g    *uncertain.Graph
		prop []int
	}{
		{"n=1", single, []int{0}},
		{"n=1 negative", single, []int{-3}},
		{"n=1 unreachable", single, []int{4}},
		{"isolated", isolated, []int{0, 1, 0, 1, 0}},
		{"isolated mixed", isolated, []int{-1, 1, 7, 0, 2}},
		{"p in {0,1}", certain, []int{3, 1, 1, 0, 1, 0}},
		{"p in {0,1} shifted", certain, []int{5, 2, -4, 0, 9, 1}},
		{"subnormal", subnormal, []int{2, 1, 3, 1}},
		{"subnormal all zero", subnormal, []int{0, 0, 0, 0}},
	} {
		for k := 1; k <= c.g.NumNodes(); k++ {
			if err := matchFullCheck(c.g, c.prop, k); err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		}
	}
}

// publishedShape returns a copy of g perturbed the way the ME scheme
// publishes it: every edge moved toward 1/2 by a half-normal step of
// scale sigma, plus n/10 injected edges with small probabilities.
func publishedShape(g *uncertain.Graph, sigma float64, rng *rand.Rand) *uncertain.Graph {
	pub := g.Clone()
	for i := 0; i < pub.NumEdges(); i++ {
		p := pub.Edge(i).P
		r := min(math.Abs(rng.NormFloat64())*sigma, 1)
		if err := pub.SetProb(i, p+(1-2*p)*r); err != nil {
			panic(err)
		}
	}
	n := pub.NumNodes()
	for added := 0; added < n/10; {
		u, v := uncertain.NodeID(rng.IntN(n)), uncertain.NodeID(rng.IntN(n))
		if u != v && !pub.HasEdge(u, v) {
			pub.MustAddEdge(u, v, 0.001+0.2*rng.Float64())
			added++
		}
	}
	return pub
}

// TestCheckObfuscationMatchesFullCheckPublished runs the differential on
// graphs shaped like the anonymization benchmarks' publications: a
// 3,600-node brightkite-s and a 12,000-node dblp-s Barabási–Albert graph,
// each perturbed, checked against the original's rounded expected degrees.
func TestCheckObfuscationMatchesFullCheckPublished(t *testing.T) {
	dblp := gen.DiscreteProbs(
		[]float64{0.13, 0.28, 0.46, 0.64, 0.80},
		[]float64{0.15, 0.23, 0.27, 0.22, 0.13},
	)
	for _, c := range []struct {
		name      string
		nodes, m  int
		probs     gen.ProbAssigner
		stream    uint64
		k         int
		sigmaStep float64
	}{
		{"anon-search", 3600, 2, gen.SmallProbs(0.29), 0xa12, 40, 0.05},
		{"anon-precompute", 12000, 3, dblp, 0xa11, 25, 0.01},
	} {
		if testing.Short() && c.nodes > 4000 {
			continue
		}
		g, err := gen.BarabasiAlbert(c.nodes, c.m, c.probs, rand.New(rand.NewPCG(7, c.stream)))
		if err != nil {
			t.Fatal(err)
		}
		prop := DegreeProperty(g)
		rng := rand.New(rand.NewPCG(3, c.stream))
		for _, sigma := range []float64{0, c.sigmaStep, 4 * c.sigmaStep} {
			if err := matchFullCheck(publishedShape(g, sigma, rng), prop, c.k); err != nil {
				t.Errorf("%s sigma=%v: %v", c.name, sigma, err)
			}
		}
	}
}

// TestCheckObfuscationAgreesWithCertify holds ε̃ and the smallest
// posterior entropy to the independent checker of internal/certify on
// every corpus graph, published as itself and as its perturbed sibling.
func TestCheckObfuscationAgreesWithCertify(t *testing.T) {
	for _, cg := range testkit.Corpus() {
		prop := DegreeProperty(cg.G)
		for _, pub := range []*uncertain.Graph{cg.G, testkit.PerturbedSibling(cg.G)} {
			for k := 1; k <= min(4, cg.G.NumNodes()); k++ {
				cert, err := certify.Check(cg.G, pub, k, 1)
				if err != nil {
					t.Fatalf("%s k=%d: %v", cg.Name, k, err)
				}
				rep, err := CheckObfuscation(pub, prop, k)
				if err != nil {
					t.Fatalf("%s k=%d: %v", cg.Name, k, err)
				}
				if rep.NonObfuscated < cert.NonObfuscated || rep.NonObfuscated > cert.NonObfuscated+cert.Boundary {
					t.Errorf("%s k=%d: %d non-obfuscated, certificate %d (+%d boundary)",
						cg.Name, k, rep.NonObfuscated, cert.NonObfuscated, cert.Boundary)
				}
				if cert.Boundary == 0 && rep.EpsilonTilde != cert.EpsilonTilde {
					t.Errorf("%s k=%d: eps~ %v, certificate %v", cg.Name, k, rep.EpsilonTilde, cert.EpsilonTilde)
				}
				minH := math.Inf(1)
				for _, w := range prop {
					minH = min(minH, rep.EntropyByDegree[max(w, 0)])
				}
				if math.Abs(minH-cert.MinEntropy) > certify.EntropyTolerance {
					t.Errorf("%s k=%d: smallest posterior entropy %v, certificate %v", cg.Name, k, minH, cert.MinEntropy)
				}
			}
		}
	}
}
