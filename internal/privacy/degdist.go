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
	return degreeDistributionInto(make([]float64, 0, len(probs)+1), probs, len(probs))
}

// degreeDistributionInto is DegreeDistribution cut at maxJ and written
// over dist's storage: it returns out[j] = Pr[exactly j successes] for
// j in 0..min(len(probs), maxJ), and allocates nothing when cap(dist)
// exceeds that bound. Row i of the DP at index j reads only indices j
// and j-1 of row i-1, so the kept entries have the bits of the full
// distribution's. Each row is updated upward, carrying row i-1's entry
// at j-1 in prev.
func degreeDistributionInto(dist, probs []float64, maxJ int) []float64 {
	dist = append(dist[:0], 1)
	for _, p := range probs {
		if len(dist) <= maxJ {
			dist = append(dist, 0)
		}
		q := 1 - p
		prev := dist[0]
		dist[0] *= q
		for j, cur := range dist[1:] {
			// float64() rounds the product: no fused multiply-add on any GOARCH.
			dist[j+1] = float64(cur*q) + float64(prev*p)
			prev = cur
		}
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
