package privacy

import (
	"chameleon/internal/portable"
	"chameleon/internal/uncertain"
)

// AnonymityObjective computes the fuzzy anonymity objective of Lemma 4,
//
//	sum over degree values w of s(w) * H(Y_w)
//
// where s(w) is the expected number of vertices with degree w (the
// adversary-side multiplicity) and H(Y_w) the posterior entropy at w.
// Maximizing this quantity is equivalent to maximizing the relaxed
// product-of-constraints anonymity of the published graph; the ME
// perturbation's gradient-ascent step (Lemma 6) pushes it upward. Exposed
// so tests and ablations can observe the optimization target directly.
func AnonymityObjective(g *uncertain.Graph) float64 {
	dists := VertexDegreeDistributions(g)
	maxW := 0
	for _, d := range dists {
		if len(d)-1 > maxW {
			maxW = len(d) - 1
		}
	}
	mass := make([]float64, maxW+1) // s(w)
	sumPlogP := make([]float64, maxW+1)
	for _, d := range dists {
		for w, p := range d {
			if p > 0 {
				mass[w] += p
				// float64() rounds the product: no fused multiply-add on any GOARCH.
				sumPlogP[w] += float64(p * portable.Log2(p))
			}
		}
	}
	var objective float64
	for w := range mass {
		if mass[w] <= 0 {
			continue
		}
		h := portable.Log2(mass[w]) - sumPlogP[w]/mass[w]
		// float64() rounds the product: no fused multiply-add on any GOARCH.
		objective += float64(mass[w] * h)
	}
	return objective
}

// DegreeUncertaintyDecomposition returns the three terms of Lemma 5's
// identity, which connects the anonymity objective to per-vertex degree
// entropy:
//
//	sum_w s(w) H(Y_w)  =  sum_v H(d_v) + |V| log2 |V| - |V| H(Omega)
//
// where H(Omega) is the entropy of the graph-level degree-value
// distribution s(w)/|V|. The decomposition explains the ME mechanism:
// raising per-vertex degree entropy (the first term) raises global
// anonymity.
func DegreeUncertaintyDecomposition(g *uncertain.Graph) (vertexEntropy, sizeTerm, omegaTerm float64) {
	n := float64(g.NumNodes())
	if n == 0 {
		return 0, 0, 0
	}
	vertexEntropy = TotalDegreeEntropy(g)
	sizeTerm = n * portable.Log2(n)

	dists := VertexDegreeDistributions(g)
	maxW := 0
	for _, d := range dists {
		if len(d)-1 > maxW {
			maxW = len(d) - 1
		}
	}
	mass := make([]float64, maxW+1)
	for _, d := range dists {
		for w, p := range d {
			mass[w] += p
		}
	}
	var hOmega float64
	for _, m := range mass {
		if m > 0 {
			q := m / n
			// float64() rounds the product: no fused multiply-add on any GOARCH.
			hOmega -= float64(q * portable.Log2(q))
		}
	}
	omegaTerm = n * hOmega
	return vertexEntropy, sizeTerm, omegaTerm
}
