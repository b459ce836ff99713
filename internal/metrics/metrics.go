// Package metrics evaluates the graph statistics used in the paper's
// utility evaluation (Section VI-A) under possible-world semantics:
// degree-based metrics (average node degree, maximal degree, degree
// distribution), node-separation metrics (average distance, effective
// diameter — via ANF), and the clustering coefficient. Except for the
// average degree, which has a closed form, every metric is the Monte Carlo
// average over sampled worlds.
package metrics

import (
	"math/rand/v2"
	"sync"

	"chameleon/internal/anf"
	"chameleon/internal/privacy"
	"chameleon/internal/reliability"
	"chameleon/internal/uncertain"
)

// Options configures metric estimation.
type Options struct {
	// Samples is the number of sampled worlds (default 1000 for cheap
	// metrics; distance/clustering callers typically pass fewer).
	Samples int
	// Seed drives world sampling.
	Seed uint64
	// Workers caps parallelism; 0 = GOMAXPROCS.
	Workers int
	// ANF configures the neighborhood-function estimator for distance
	// metrics.
	ANF anf.Options
}

func (o Options) samples(def int) int {
	if o.Samples <= 0 {
		return def
	}
	return o.Samples
}

// forEachWorld calls fn on n sampled worlds, in parallel.
func (o Options) forEachWorld(g *uncertain.Graph, n int, fn func(i int, w *uncertain.World)) {
	reliability.ForEachWorld(g, o.Seed, n, o.Workers, func(i int, w *uncertain.World, _ *rand.PCG) { fn(i, w) })
}

// AverageDegree returns the expected average node degree. Closed form:
// 2 * sum(p) / |V|.
func AverageDegree(g *uncertain.Graph) float64 { return g.ExpectedAvgDegree() }

// MaxDegree estimates E[max_v deg(v)] over sampled worlds.
func (o Options) MaxDegree(g *uncertain.Graph) float64 {
	n := o.samples(1000)
	maxes := make([]int, n)
	o.forEachWorld(g, n, func(i int, w *uncertain.World) {
		m := 0
		for v := 0; v < w.NumNodes(); v++ {
			if d := w.Degree(uncertain.NodeID(v)); d > m {
				m = d
			}
		}
		maxes[i] = m
	})
	var total float64
	for _, m := range maxes {
		total += float64(m)
	}
	return total / float64(n)
}

// DegreeDistribution estimates the expected degree histogram:
// out[d] = E[#vertices with degree d] over sampled worlds.
func (o Options) DegreeDistribution(g *uncertain.Graph) []float64 {
	n := o.samples(1000)
	var mu sync.Mutex
	counts := make([]int64, g.MaxStructuralDegree()+1)
	o.forEachWorld(g, n, func(i int, w *uncertain.World) {
		local := make([]int64, len(counts))
		for v := 0; v < w.NumNodes(); v++ {
			local[w.Degree(uncertain.NodeID(v))]++
		}
		mu.Lock()
		for d, c := range local {
			counts[d] += c
		}
		mu.Unlock()
	})
	out := make([]float64, len(counts))
	for d, c := range counts {
		out[d] = float64(c) / float64(n)
	}
	return out
}

// ExpectedDegreeDistribution computes the expected degree histogram
// analytically: out[d] = sum over vertices of Pr[deg(v) = d], with the
// per-vertex Poisson-binomial distributions evaluated exactly. It is the
// closed-form counterpart of the Monte Carlo DegreeDistribution and
// useful for cross-validating sampling budgets.
func ExpectedDegreeDistribution(g *uncertain.Graph) []float64 {
	out := make([]float64, g.MaxStructuralDegree()+1)
	var buf []float64
	for v := 0; v < g.NumNodes(); v++ {
		buf = g.IncidentProbs(uncertain.NodeID(v), buf[:0])
		for d, p := range privacy.DegreeDistribution(buf) {
			out[d] += p
		}
	}
	return out
}

// DistanceStats is the node-separation summary of one graph.
type DistanceStats struct {
	AverageDistance   float64 // mean shortest-path length over connected pairs
	EffectiveDiameter float64 // 90th-percentile distance
}

// Distances estimates average distance and effective diameter as Monte
// Carlo averages of per-world ANF results.
func (o Options) Distances(g *uncertain.Graph) DistanceStats {
	n := o.samples(100)
	ad := make([]float64, n)
	ed := make([]float64, n)
	o.forEachWorld(g, n, func(i int, w *uncertain.World) {
		opts := o.ANF
		opts.Seed = o.Seed ^ (uint64(i) * 0x9e3779b9)
		r := anf.Neighborhood(w, opts)
		ad[i] = r.AverageDistance()
		ed[i] = r.EffectiveDiameter(0.9)
	})
	var sa, se float64
	for i := 0; i < n; i++ {
		sa += ad[i]
		se += ed[i]
	}
	return DistanceStats{AverageDistance: sa / float64(n), EffectiveDiameter: se / float64(n)}
}

// ClusteringCoefficient estimates the expected average local clustering
// coefficient over sampled worlds.
func (o Options) ClusteringCoefficient(g *uncertain.Graph) float64 {
	n := o.samples(100)
	vals := make([]float64, n)
	o.forEachWorld(g, n, func(i int, w *uncertain.World) {
		vals[i] = worldClustering(w)
	})
	var total float64
	for _, v := range vals {
		total += v
	}
	return total / float64(n)
}

// worldClustering computes the average local clustering coefficient of a
// deterministic world: for each vertex with degree >= 2, the fraction of
// neighbor pairs that are themselves adjacent; vertices with degree < 2
// contribute 0, following the common convention.
func worldClustering(w *uncertain.World) float64 {
	n := w.NumNodes()
	if n == 0 {
		return 0
	}
	adj := w.AdjacencyLists()
	// Adjacency membership for O(1) edge tests in this world.
	present := make(map[uint64]bool)
	key := func(a, b uncertain.NodeID) uint64 {
		if a > b {
			a, b = b, a
		}
		return uint64(a)<<32 | uint64(uint32(b))
	}
	for v := 0; v < n; v++ {
		for _, u := range adj[v] {
			if uncertain.NodeID(v) < u {
				present[key(uncertain.NodeID(v), u)] = true
			}
		}
	}
	var total float64
	for v := 0; v < n; v++ {
		neigh := adj[v]
		d := len(neigh)
		if d < 2 {
			continue
		}
		links := 0
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				if present[key(neigh[i], neigh[j])] {
					links++
				}
			}
		}
		total += 2 * float64(links) / float64(d*(d-1))
	}
	return total / float64(n)
}

// RelativeError returns |measured - original| / |original|, the "ratio of
// absolute difference against the original" the paper reports per metric.
// A zero original with nonzero measured returns +1 by convention.
func RelativeError(original, measured float64) float64 {
	diff := measured - original
	if diff < 0 {
		diff = -diff
	}
	if original == 0 {
		if diff == 0 {
			return 0
		}
		return 1
	}
	if original < 0 {
		original = -original
	}
	return diff / original
}
