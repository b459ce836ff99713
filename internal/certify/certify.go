// Package certify independently re-verifies the (k, ε)-obfuscation
// guarantee of a published uncertain graph (Definition 3 of the paper,
// after Boldi et al.). It imports only internal/uncertain: the checker
// shares no code with internal/privacy, so it certifies the production
// pipeline rather than replaying it. The job daemon's certificate
// endpoint and cmd/certify both serve its verdict.
package certify

import (
	"fmt"
	"math"

	"chameleon/internal/uncertain"
)

// EntropyTolerance is the slack (in bits) the certificate checker allows
// around the log2(k) entropy threshold. The production checker and this
// one accumulate the same sums in different orders with different
// algebra, so a vertex sitting exactly on the threshold could flip
// verdicts on float noise alone; 1e-9 bits is orders of magnitude above
// that noise and orders of magnitude below any real entropy gap. Vertices
// inside the band are counted separately (Certificate.Boundary) so a
// graph that passes only by grace of the tolerance is visible.
const EntropyTolerance = 1e-9

// Certificate is the outcome of an independent (k, eps)-obfuscation
// re-verification of a published graph (Definition 3).
type Certificate struct {
	// K and Epsilon echo the claim being checked.
	K       int
	Epsilon float64
	// Vertices is |V|.
	Vertices int
	// NonObfuscated counts vertices whose degree-posterior entropy falls
	// clearly below log2(K) (beyond EntropyTolerance), including vertices
	// whose property value has no probability mass in the published graph
	// (an empty posterior means the adversary isolates them outright).
	NonObfuscated int
	// Boundary counts vertices within EntropyTolerance of the threshold —
	// zero for any healthy published graph.
	Boundary int
	// EpsilonTilde is NonObfuscated / Vertices.
	EpsilonTilde float64
	// MinEntropy is the smallest posterior entropy over the property
	// values that occur, in bits (0 when some posterior is empty).
	MinEntropy float64
	// Valid reports EpsilonTilde <= Epsilon: the published graph delivers
	// the claimed guarantee.
	Valid bool
}

// Check re-verifies from scratch that pub (k, eps)-obfuscates
// the vertices of orig against a degree-knowledge adversary. It shares no
// code with internal/privacy: expected degrees come from a direct edge
// scan, degree distributions from divide-and-conquer convolution
// (PoissonBinomial), and posterior entropies from explicit normalization
// — so it certifies the production pipeline rather than replaying it.
//
// The adversary model matches the paper's: the attacker knows each
// target's (rounded expected) degree in the original graph and observes
// the published uncertain graph. For every degree value w, the posterior
// over candidate vertices is
//
//	Y_w(u) = Pr[deg_pub(u) = w] / sum_x Pr[deg_pub(x) = w]
//
// and a vertex with property value w hides iff H(Y_w) >= log2(k).
func Check(orig, pub *uncertain.Graph, k int, eps float64) (Certificate, error) {
	n := orig.NumNodes()
	if pub.NumNodes() != n {
		return Certificate{}, fmt.Errorf("certify: published graph has %d vertices, original %d",
			pub.NumNodes(), n)
	}
	if n == 0 {
		return Certificate{}, fmt.Errorf("certify: empty graph")
	}
	if k < 1 || k > n {
		return Certificate{}, fmt.Errorf("certify: k=%d out of [1, %d]", k, n)
	}
	if eps < 0 || eps > 1 {
		return Certificate{}, fmt.Errorf("certify: epsilon=%v out of [0, 1]", eps)
	}

	// Adversary knowledge: rounded expected degree of every original
	// vertex, by direct edge scan.
	expDeg := make([]float64, n)
	for _, e := range orig.Edges() {
		expDeg[e.U] += e.P
		expDeg[e.V] += e.P
	}
	property := make([]int, n)
	for v, d := range expDeg {
		property[v] = int(math.Round(d))
	}

	// Published degree distributions via independent D&C convolution.
	incident := make([][]float64, n)
	for _, e := range pub.Edges() {
		incident[e.U] = append(incident[e.U], e.P)
		incident[e.V] = append(incident[e.V], e.P)
	}
	dists := make([][]float64, n)
	for v := range dists {
		dists[v] = PoissonBinomial(incident[v])
	}

	// Posterior entropy per distinct property value, by explicit
	// normalization (collect the mass vector, divide, sum -y*log2(y)).
	entropyOf := func(w int) (h float64, ok bool) {
		var mass float64
		ys := make([]float64, 0, n)
		for v := 0; v < n; v++ {
			var p float64
			if w >= 0 && w < len(dists[v]) {
				p = dists[v][w]
			}
			ys = append(ys, p)
			mass += p
		}
		if mass <= 0 {
			return 0, false
		}
		for _, y := range ys {
			if y > 0 {
				y /= mass
				// float64() forbids fusing this product into the
				// subtraction, so arm64 hosts agree with amd64.
				h -= float64(y * math.Log2(y))
			}
		}
		return h, true
	}

	threshold := math.Log2(float64(k))
	entCache := map[int]float64{}
	okCache := map[int]bool{}
	cert := Certificate{K: k, Epsilon: eps, Vertices: n, MinEntropy: math.Inf(1)}
	for _, w := range property {
		if w < 0 {
			w = 0
		}
		h, seen := entCache[w]
		if !seen {
			var ok bool
			h, ok = entropyOf(w)
			entCache[w] = h
			okCache[w] = ok
		}
		if !okCache[w] {
			cert.NonObfuscated++
			cert.MinEntropy = 0
			continue
		}
		if h < cert.MinEntropy {
			cert.MinEntropy = h
		}
		switch {
		case h < threshold-EntropyTolerance:
			cert.NonObfuscated++
		case h < threshold+EntropyTolerance:
			cert.Boundary++
		}
	}
	cert.EpsilonTilde = float64(cert.NonObfuscated) / float64(n)
	cert.Valid = cert.EpsilonTilde <= eps
	return cert, nil
}
