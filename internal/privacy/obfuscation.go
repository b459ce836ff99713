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
	K int
	// EntropyByDegree[w] is H(Y_w) for w in 0..W, W the largest property
	// value (negative values count as 0). It is defined at the values
	// some vertex's property takes, and 0 at every other index, which
	// the verdict never reads.
	EntropyByDegree []float64
	NonObfuscated   int     // vertices v with H(Y_{P(v)}) < log2(K)
	EpsilonTilde    float64 // NonObfuscated / |V|
}

// Obfuscates reports whether the check achieved (k, eps)-obf for the given
// tolerance.
func (r ObfuscationReport) Obfuscates(eps float64) bool {
	return r.EpsilonTilde <= eps
}

// Published is what CheckObfuscation reads of a published uncertain
// graph: its vertex count, an upper bound on its structural degrees (a
// buffer size only), and each vertex's incident edge probabilities. The
// degree DP folds those in the order IncidentProbs lists them, so the
// order fixes the report's bits. *uncertain.Graph satisfies it.
type Published interface {
	NumNodes() int
	MaxStructuralDegree() int
	IncidentProbs(v uncertain.NodeID, buf []float64) []float64
}

// CheckObfuscation verifies Definition 3 on the published uncertain graph
// pub: for each degree value w that is some vertex's property P(v) it
// builds the adversary's posterior
//
//	Y_w(u) = Pr[deg_pub(u) = w] / sum_x Pr[deg_pub(x) = w]
//
// and computes its entropy. A vertex v with known property P(v)=w is
// k-obfuscated iff H(Y_w) >= log2(k). Degree values with zero total mass in
// the published graph are treated conservatively as NOT obfuscated (these
// are exactly the "extreme unique nodes" the epsilon tolerance exists for).
// A negative property value is read as 0.
func CheckObfuscation(pub Published, property []int, k int) (ObfuscationReport, error) {
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
	maxW := 0
	for _, w := range property {
		maxW = max(maxW, w)
	}
	// isValue[w] reports whether w is some vertex's property value.
	isValue := make([]bool, maxW+1)
	for _, w := range property {
		isValue[max(w, 0)] = true
	}

	// One pass over the vertices in ascending order: each vertex's
	// distribution, cut at maxW, goes into one reused buffer and is folded
	// straight into
	//
	//	mass[w]     = sum_u Pr[deg(u) = w]
	//	sumPlogP[w] = sum_u p log2 p   over p = Pr[deg(u) = w] > 0
	//
	// at the property values w only. Every per-degree sum adds the
	// vertices in the same order as summing the full stored distributions
	// would, and the cut entries have the full DP's bits, so the bits do
	// not depend on the cut or the buffering.
	// H(Y_w) = -sum_u y log2 y with y = Pr[deg(u)=w]/mass[w]
	//        = log2(mass[w]) - (1/mass[w]) * sumPlogP[w].
	maxDeg := pub.MaxStructuralDegree()
	probs := make([]float64, 0, maxDeg)
	dist := make([]float64, 0, min(maxDeg, maxW)+1)
	mass := make([]float64, maxW+1)
	sumPlogP := make([]float64, maxW+1)
	for u := 0; u < n; u++ {
		probs = pub.IncidentProbs(uncertain.NodeID(u), probs[:0])
		dist = degreeDistributionInto(dist, probs, maxW)
		for w, p := range dist {
			if !isValue[w] {
				continue
			}
			mass[w] += p
			if p > 0 {
				// float64() rounds the product: no fused multiply-add on any GOARCH.
				sumPlogP[w] += float64(p * portable.Log2(p))
			}
		}
	}
	entropy := make([]float64, maxW+1)
	for w := range entropy {
		if isValue[w] && mass[w] > 0 {
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
	return ObfuscationReport{
		K:               k,
		EntropyByDegree: entropy,
		NonObfuscated:   nonObf,
		EpsilonTilde:    float64(nonObf) / float64(n),
	}, nil
}
