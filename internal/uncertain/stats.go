package uncertain

import "math"

// MeanProb returns the average edge probability, or 0 for an edgeless
// graph.
func (g *Graph) MeanProb() float64 {
	if len(g.edges) == 0 {
		return 0
	}
	return g.ExpectedNumEdges() / float64(len(g.edges))
}

// ExpectedNumEdges returns E[|E(world)|] = sum of edge probabilities.
func (g *Graph) ExpectedNumEdges() float64 {
	var s float64
	for _, e := range g.edges {
		s += e.P
	}
	return s
}

// ExpectedAvgDegree returns E[average degree] = 2*sum(p)/|V|.
func (g *Graph) ExpectedAvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * g.ExpectedNumEdges() / float64(g.n)
}

// ExpectedDegrees returns the expected degree of every vertex.
func (g *Graph) ExpectedDegrees() []float64 {
	out := make([]float64, g.n)
	for _, e := range g.edges {
		out[e.U] += e.P
		out[e.V] += e.P
	}
	return out
}

// DegreeStdDev returns the standard deviation of the expected-degree
// property across vertices. Used as the kernel bandwidth theta = sigma_G of
// the uniqueness score (Definition 4).
func (g *Graph) DegreeStdDev() float64 {
	if g.n == 0 {
		return 0
	}
	degs := g.ExpectedDegrees()
	var mean float64
	for _, d := range degs {
		mean += d
	}
	mean /= float64(g.n)
	var ss float64
	for _, d := range degs {
		diff := d - mean
		// float64() rounds the product: no fused multiply-add on any GOARCH.
		ss += float64(diff * diff)
	}
	return math.Sqrt(ss / float64(g.n))
}

// MaxStructuralDegree returns the maximum structural degree over vertices.
func (g *Graph) MaxStructuralDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := len(g.adj[v]); d > max {
			max = d
		}
	}
	return max
}

// ProbHistogram buckets the edge probabilities into `bins` equal-width bins
// over [0,1] and returns the per-bin counts. p = 1 lands in the last bin.
func (g *Graph) ProbHistogram(bins int) []int {
	if bins <= 0 {
		bins = 10
	}
	h := make([]int, bins)
	for _, e := range g.edges {
		b := int(e.P * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		h[b]++
	}
	return h
}

// StructuralDegreeHistogram returns counts[d] = number of vertices with
// structural degree d.
func (g *Graph) StructuralDegreeHistogram() []int {
	h := make([]int, g.MaxStructuralDegree()+1)
	for v := 0; v < g.n; v++ {
		h[len(g.adj[v])]++
	}
	return h
}
