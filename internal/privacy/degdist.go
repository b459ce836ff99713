// Package privacy implements the syntactic privacy machinery of the paper:
// Poisson-binomial degree distributions for uncertain graphs, the
// entropy-based (k, eps)-obfuscation criterion (Definition 3), and the
// kernel-density uniqueness score (Definition 4).
package privacy

import (
	"chameleon/internal/portable"
	"chameleon/internal/uncertain"
)

// DegreeDistribution computes the exact distribution of the sum of
// independent Bernoulli variables with the given success probabilities
// (the Poisson-binomial distribution) by dynamic programming:
// out[j] = Pr[exactly j successes], j in 0..len(probs).
func DegreeDistribution(probs []float64) []float64 {
	return degreeDistributionInto(make([]float64, 0, len(probs)+1), probs)
}

// degreeDistributionInto is DegreeDistribution written over dist's
// storage: it allocates nothing when cap(dist) > len(probs).
func degreeDistributionInto(dist, probs []float64) []float64 {
	dist = append(dist[:0], 1)
	for _, p := range probs {
		dist = append(dist, 0)
		q := 1 - p
		for j := len(dist) - 1; j >= 1; j-- {
			// float64() rounds the product: no fused multiply-add on any GOARCH.
			dist[j] = float64(dist[j]*q) + float64(dist[j-1]*p)
		}
		dist[0] *= q
	}
	return dist
}

// VertexDegreeDistributions returns the Poisson-binomial degree
// distribution of every vertex of g. dists[v][j] = Pr[deg(v) = j].
func VertexDegreeDistributions(g *uncertain.Graph) [][]float64 {
	n := g.NumNodes()
	dists := make([][]float64, n)
	var buf []float64
	for v := 0; v < n; v++ {
		buf = g.IncidentProbs(uncertain.NodeID(v), buf[:0])
		dists[v] = DegreeDistribution(buf)
	}
	return dists
}

// DegreeEntropy returns the Shannon entropy (bits) of a vertex's
// Poisson-binomial degree distribution. Per Lemma 6 this is the quantity
// the ME perturbation scheme pushes upward.
func DegreeEntropy(dist []float64) float64 {
	var h float64
	for _, p := range dist {
		if p > 0 {
			// float64() rounds the product: no fused multiply-add on any GOARCH.
			h -= float64(p * portable.Log2(p))
		}
	}
	return h
}

// TotalDegreeEntropy returns sum over vertices of H(d_v) — the left-hand
// driver of Lemma 5's anonymity objective.
func TotalDegreeEntropy(g *uncertain.Graph) float64 {
	var total float64
	var buf []float64
	for v := 0; v < g.NumNodes(); v++ {
		buf = g.IncidentProbs(uncertain.NodeID(v), buf[:0])
		total += DegreeEntropy(DegreeDistribution(buf))
	}
	return total
}
