// Package weighted extends the uncertain-graph model with edge weights,
// covering the road-network motivation of the paper's related-work
// discussion: "each link in the road network can be weighted indicating
// the distance or travel time between them, and a probability can be
// assigned to model the likelihood of a traffic jam" [19]. Casting
// probabilities into weights is exactly the fallacy the paper warns
// against; here the two attributes coexist — weights describe cost,
// probabilities describe existence — and anonymization perturbs only the
// probabilities.
package weighted

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"chameleon/internal/reliability"
	"chameleon/internal/uncertain"
)

// Graph is an uncertain graph whose edges additionally carry a
// non-negative weight (distance, travel time, cost). The weight vector is
// indexed by the underlying graph's edge indices.
type Graph struct {
	g *uncertain.Graph
	w []float64
}

// ErrWeightMismatch is returned when a weight vector does not line up
// with the edge list.
var ErrWeightMismatch = errors.New("weighted: weight vector does not match edge count")

// New wraps an uncertain graph with per-edge weights. weights[i] belongs
// to g.Edge(i); the slice is copied.
func New(g *uncertain.Graph, weights []float64) (*Graph, error) {
	if len(weights) != g.NumEdges() {
		return nil, fmt.Errorf("%w: %d weights for %d edges", ErrWeightMismatch, len(weights), g.NumEdges())
	}
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("weighted: bad weight %v on edge %d", w, i)
		}
	}
	return &Graph{g: g, w: append([]float64(nil), weights...)}, nil
}

// Uniform wraps g with unit weights on every edge.
func Uniform(g *uncertain.Graph) *Graph {
	w := make([]float64, g.NumEdges())
	for i := range w {
		w[i] = 1
	}
	wg, err := New(g, w)
	if err != nil {
		panic(err) // unreachable: unit weights are always valid
	}
	return wg
}

// Uncertain returns the underlying probabilistic graph.
func (wg *Graph) Uncertain() *uncertain.Graph { return wg.g }

// Weight returns the weight of edge i.
func (wg *Graph) Weight(i int) float64 { return wg.w[i] }

// Weights returns a copy of the weight vector.
func (wg *Graph) Weights() []float64 { return append([]float64(nil), wg.w...) }

// WithProbabilities rebinds the same weights to a graph with identical
// edge identity but different probabilities — e.g. an anonymized version
// produced by the Chameleon pipeline. Every original edge must still be
// present; edges injected by the anonymizer receive the given
// defaultWeight.
func (wg *Graph) WithProbabilities(pub *uncertain.Graph, defaultWeight float64) (*Graph, error) {
	if pub.NumNodes() != wg.g.NumNodes() {
		return nil, fmt.Errorf("weighted: vertex count mismatch %d vs %d", pub.NumNodes(), wg.g.NumNodes())
	}
	if defaultWeight < 0 || math.IsNaN(defaultWeight) {
		return nil, fmt.Errorf("weighted: bad default weight %v", defaultWeight)
	}
	w := make([]float64, pub.NumEdges())
	for i := 0; i < pub.NumEdges(); i++ {
		e := pub.Edge(i)
		if j := wg.g.EdgeIndex(e.U, e.V); j >= 0 {
			w[i] = wg.w[j]
		} else {
			w[i] = defaultWeight
		}
	}
	return New(pub, w)
}

// Dijkstra computes single-source weighted shortest-path distances from
// src within one sampled world. Unreachable vertices get +Inf.
func (wg *Graph) Dijkstra(w *uncertain.World, src uncertain.NodeID) []float64 {
	n := wg.g.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := &distHeap{{node: src, d: 0}}
	for pq.Len() > 0 {
		top := heap.Pop(pq).(distEntry)
		if top.d > dist[top.node] {
			continue
		}
		var edges []int32
		edges = wg.g.IncidentEdges(top.node, edges)
		for _, ei := range edges {
			if !w.Present(int(ei)) {
				continue
			}
			e := wg.g.Edge(int(ei))
			to := e.U
			if to == top.node {
				to = e.V
			}
			if nd := top.d + wg.w[ei]; nd < dist[to] {
				dist[to] = nd
				heap.Push(pq, distEntry{node: to, d: nd})
			}
		}
	}
	return dist
}

type distEntry struct {
	node uncertain.NodeID
	d    float64
}

type distHeap []distEntry

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distEntry)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// Options configures the Monte Carlo travel estimators.
type Options struct {
	// Samples is the number of sampled worlds (default 200).
	Samples int
	// Sources is the number of random Dijkstra sources per world
	// (default 16, capped at |V|).
	Sources int
	// Seed drives sampling.
	Seed uint64
	// Workers caps parallelism; 0 = GOMAXPROCS.
	Workers int
}

func (o Options) withDefaults(n int) Options {
	if o.Samples <= 0 {
		o.Samples = 200
	}
	if o.Sources <= 0 {
		o.Sources = 16
	}
	if o.Sources > n {
		o.Sources = n
	}
	return o
}

// TravelStats summarizes expected weighted reachability.
type TravelStats struct {
	// MeanCost is the average weighted shortest-path cost over reachable
	// source-destination pairs and sampled worlds.
	MeanCost float64
	// Reachability is the average fraction of destinations reachable from
	// a source.
	Reachability float64
}

// ExpectedTravel estimates the expected weighted shortest-path cost and
// reachability under possible-world semantics: worlds are sampled from
// the existence probabilities, then Dijkstra runs over the surviving
// edges with their weights.
func (wg *Graph) ExpectedTravel(o Options) TravelStats {
	n := wg.g.NumNodes()
	if n < 2 {
		return TravelStats{}
	}
	o = o.withDefaults(n)

	type result struct {
		cost  float64
		pairs int
		reach int
		total int
	}
	results := make([]result, o.Samples)
	reliability.ForEachWorld(wg.g, o.Seed, o.Samples, o.Workers, func(i int, world *uncertain.World, pcg *rand.PCG) {
		rng := rand.New(pcg)
		var r result
		for s := 0; s < o.Sources; s++ {
			src := uncertain.NodeID(rng.IntN(n))
			dist := wg.Dijkstra(world, src)
			for v, d := range dist {
				if uncertain.NodeID(v) == src {
					continue
				}
				r.total++
				if !math.IsInf(d, 1) {
					r.reach++
					r.cost += d
					r.pairs++
				}
			}
		}
		results[i] = r
	})

	var agg result
	for _, r := range results {
		agg.cost += r.cost
		agg.pairs += r.pairs
		agg.reach += r.reach
		agg.total += r.total
	}
	out := TravelStats{}
	if agg.pairs > 0 {
		out.MeanCost = agg.cost / float64(agg.pairs)
	}
	if agg.total > 0 {
		out.Reachability = float64(agg.reach) / float64(agg.total)
	}
	return out
}
