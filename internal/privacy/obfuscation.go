package privacy

import (
	"fmt"
	"math"

	"chameleon/internal/portable"
	"chameleon/internal/uncertain"
)

// DegreeProperty returns the adversary's assumed auxiliary knowledge about
// every vertex: the vertex degree (the paper's property P). For an
// uncertain original graph this is the rounded expected degree.
func DegreeProperty(g *uncertain.Graph) []int {
	degs := g.ExpectedDegrees()
	out := make([]int, len(degs))
	for v, d := range degs {
		out[v] = int(math.Round(d))
	}
	return out
}

// ObfuscationReport is the outcome of the (k, eps)-obf check of a
// published graph against an adversary property vector.
type ObfuscationReport struct {
	K               int
	EntropyByDegree []float64 // H(Y_w) for degree value w; index up to max degree
	NonObfuscated   int       // vertices v with H(Y_{P(v)}) < log2(K)
	EpsilonTilde    float64   // NonObfuscated / |V|
}

// Obfuscates reports whether the check achieved (k, eps)-obf for the given
// tolerance.
func (r ObfuscationReport) Obfuscates(eps float64) bool {
	return r.EpsilonTilde <= eps
}

// CheckObfuscation verifies Definition 3 on the published uncertain graph
// pub: for each degree value w it builds the adversary's posterior
//
//	Y_w(u) = Pr[deg_pub(u) = w] / sum_x Pr[deg_pub(x) = w]
//
// and computes its entropy. A vertex v with known property P(v)=w is
// k-obfuscated iff H(Y_w) >= log2(k). Degree values with zero total mass in
// the published graph are treated conservatively as NOT obfuscated (these
// are exactly the "extreme unique nodes" the epsilon tolerance exists for).
func CheckObfuscation(pub *uncertain.Graph, property []int, k int) (ObfuscationReport, error) {
	n := pub.NumNodes()
	if len(property) != n {
		return ObfuscationReport{}, fmt.Errorf("privacy: property length %d != |V| %d", len(property), n)
	}
	if k < 1 {
		return ObfuscationReport{}, fmt.Errorf("privacy: k must be >= 1, got %d", k)
	}
	if k > n {
		return ObfuscationReport{}, fmt.Errorf("privacy: k=%d exceeds |V|=%d; no graph can satisfy it", k, n)
	}
	maxDeg := pub.MaxStructuralDegree()
	maxW := maxDeg
	for _, w := range property {
		if w > maxW {
			maxW = w
		}
	}

	// One pass over the vertices in ascending order: each vertex's
	// distribution goes into one reused buffer and is folded straight into
	//
	//	mass[w]     = sum_u Pr[deg(u) = w]
	//	sumPlogP[w] = sum_u p log2 p   over p = Pr[deg(u) = w] > 0
	//
	// Every per-degree sum adds the vertices in the same order as summing
	// the stored distributions would, so the bits do not depend on the
	// buffering. H(Y_w) = -sum_u y log2 y with y = Pr[deg(u)=w]/mass[w]
	//                   = log2(mass[w]) - (1/mass[w]) * sumPlogP[w].
	probs := make([]float64, 0, maxDeg)
	dist := make([]float64, 0, maxDeg+1)
	mass := make([]float64, maxW+1)
	sumPlogP := make([]float64, maxW+1)
	for u := 0; u < n; u++ {
		probs = pub.IncidentProbs(uncertain.NodeID(u), probs[:0])
		dist = degreeDistributionInto(dist, probs)
		for w, p := range dist {
			mass[w] += p
			if p > 0 {
				// float64() rounds the product: no fused multiply-add on any GOARCH.
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
		if w < 0 {
			w = 0
		}
		if mass[w] <= 0 || entropy[w] < threshold {
			nonObf++
		}
	}
	return ObfuscationReport{
		K:               k,
		EntropyByDegree: entropy,
		NonObfuscated:   nonObf,
		EpsilonTilde:    float64(nonObf) / float64(n),
	}, nil
}

// CheckObfuscationWindow runs the Definition 3 check against a WEAKER
// adversary whose degree knowledge is approximate: for a target with
// property value w the adversary only knows deg is in [w-t, w+t], so the
// posterior pools the probability mass of the whole window:
//
//	Y^t_w(u) = Pr[deg_pub(u) in [w-t, w+t]] / sum_x Pr[deg_pub(x) in [w-t, w+t]]
//
// t = 0 reduces to CheckObfuscation. Wider windows can only raise the
// posterior entropy (more candidates blend in), so the report's
// NonObfuscated count is non-increasing in t — property-tested.
func CheckObfuscationWindow(pub *uncertain.Graph, property []int, k, t int) (ObfuscationReport, error) {
	if t < 0 {
		return ObfuscationReport{}, fmt.Errorf("privacy: window must be >= 0, got %d", t)
	}
	if t == 0 {
		return CheckObfuscation(pub, property, k)
	}
	n := pub.NumNodes()
	if len(property) != n {
		return ObfuscationReport{}, fmt.Errorf("privacy: property length %d != |V| %d", len(property), n)
	}
	if k < 1 || k > n {
		return ObfuscationReport{}, fmt.Errorf("privacy: k=%d out of [1, %d]", k, n)
	}
	maxW := pub.MaxStructuralDegree()
	for _, w := range property {
		if w > maxW {
			maxW = w
		}
	}
	dists := VertexDegreeDistributions(pub)
	// windowMass[u][w] = Pr[deg(u) in [w-t, w+t]] via per-vertex prefix sums.
	prefix := make([][]float64, n)
	for u, d := range dists {
		ps := make([]float64, len(d)+1)
		for j, p := range d {
			ps[j+1] = ps[j] + p
		}
		prefix[u] = ps
	}
	window := func(u, w int) float64 {
		ps := prefix[u]
		lo := w - t
		if lo < 0 {
			lo = 0
		}
		hi := w + t + 1
		if hi > len(ps)-1 {
			hi = len(ps) - 1
		}
		if lo >= hi {
			return 0
		}
		return ps[hi] - ps[lo]
	}

	threshold := portable.Log2(float64(k))
	entropy := make([]float64, maxW+1)
	computed := make([]bool, maxW+1)
	nonObf := 0
	for _, w := range property {
		if w < 0 {
			w = 0
		}
		if !computed[w] {
			computed[w] = true
			var mass, plogp float64
			for u := 0; u < n; u++ {
				p := window(u, w)
				if p > 0 {
					mass += p
					// float64() rounds the product: no fused multiply-add on any GOARCH.
					plogp += float64(p * portable.Log2(p))
				}
			}
			if mass > 0 {
				entropy[w] = portable.Log2(mass) - plogp/mass
			} else {
				entropy[w] = -1 // sentinel: empty posterior
			}
		}
		if entropy[w] < threshold {
			nonObf++
		}
	}
	for w := range entropy {
		if entropy[w] < 0 {
			entropy[w] = 0
		}
	}
	return ObfuscationReport{
		K:               k,
		EntropyByDegree: entropy,
		NonObfuscated:   nonObf,
		EpsilonTilde:    float64(nonObf) / float64(n),
	}, nil
}
