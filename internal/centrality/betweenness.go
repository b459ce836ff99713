// Package centrality computes betweenness centrality for possible worlds
// and its expectation over an uncertain graph. Betweenness is the second
// statistic the representative-extraction literature [29] targets (the
// ABM variant) and an informative utility probe: anonymization that
// preserves degrees can still scramble which vertices broker shortest
// paths.
package centrality

import (
	"math/rand/v2"

	"chameleon/internal/reliability"
	"chameleon/internal/uncertain"
)

// Betweenness computes exact unweighted betweenness centrality of one
// world with Brandes' algorithm: O(|V|·|E|) over BFS DAGs. Scores use the
// undirected convention (each pair contributes once).
func Betweenness(w *uncertain.World) []float64 {
	n := w.NumNodes()
	adj := w.AdjacencyLists()
	bc := make([]float64, n)

	sigma := make([]float64, n) // shortest-path counts
	dist := make([]int32, n)
	delta := make([]float64, n)
	// order holds the vertices in BFS order: the queue while head walks
	// forward, the stack when walked back from the end.
	order := make([]uncertain.NodeID, n)
	preds := make([][]uncertain.NodeID, n)
	for i := range dist {
		dist[i] = -1
	}

	tail := 0
	for s := 0; s < n; s++ {
		// Reset the state the previous source touched: only the vertices
		// it reached.
		for _, v := range order[:tail] {
			sigma[v] = 0
			dist[v] = -1
			delta[v] = 0
			preds[v] = preds[v][:0]
		}
		src := uncertain.NodeID(s)
		sigma[src] = 1
		dist[src] = 0
		order[0] = src
		tail = 1
		for head := 0; head < tail; head++ {
			v := order[head]
			for _, u := range adj[v] {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					order[tail] = u
					tail++
				}
				if dist[u] == dist[v]+1 {
					sigma[u] += sigma[v]
					preds[u] = append(preds[u], v)
				}
			}
		}
		// Dependency accumulation in reverse BFS order.
		for i := tail - 1; i >= 0; i-- {
			v := order[i]
			for _, p := range preds[v] {
				delta[p] += sigma[p] / sigma[v] * (1 + delta[v])
			}
			if v != src {
				bc[v] += delta[v]
			}
		}
	}
	// Undirected: every pair was counted from both endpoints.
	for i := range bc {
		bc[i] /= 2
	}
	return bc
}

// Options configures the expectation estimator.
type Options struct {
	// Samples is the number of sampled worlds (default 50 — Brandes is
	// the expensive part, not the sampling).
	Samples int
	// Seed drives world sampling.
	Seed uint64
	// Workers caps parallelism; 0 = GOMAXPROCS.
	Workers int
}

// Expected estimates E[betweenness(v)] for every vertex over the possible
// worlds of g.
func Expected(g *uncertain.Graph, o Options) []float64 {
	if o.Samples <= 0 {
		o.Samples = 50
	}
	perSample := make([][]float64, o.Samples)
	reliability.ForEachWorld(g, o.Seed, o.Samples, o.Workers, func(i int, w *uncertain.World, _ *rand.PCG) {
		perSample[i] = Betweenness(w)
	})

	out := make([]float64, g.NumNodes())
	for _, bc := range perSample {
		for v, x := range bc {
			out[v] += x
		}
	}
	inv := 1 / float64(o.Samples)
	for v := range out {
		out[v] *= inv
	}
	return out
}

// TopKOverlap returns |topK(a) ∩ topK(b)| / k: how much of the k most
// central vertices one scoring preserves of another. Ties break by
// vertex id.
func TopKOverlap(a, b []float64, k int) float64 {
	if k <= 0 || len(a) == 0 || len(a) != len(b) {
		return 0
	}
	top := func(scores []float64) map[int]bool {
		idx := make([]int, len(scores))
		for i := range idx {
			idx[i] = i
		}
		// Partial selection of the top k.
		for i := 0; i < k && i < len(idx); i++ {
			best := i
			for j := i + 1; j < len(idx); j++ {
				si, sb := scores[idx[j]], scores[idx[best]]
				if si > sb || (si == sb && idx[j] < idx[best]) {
					best = j
				}
			}
			idx[i], idx[best] = idx[best], idx[i]
		}
		set := make(map[int]bool, k)
		for i := 0; i < k && i < len(idx); i++ {
			set[idx[i]] = true
		}
		return set
	}
	ta, tb := top(a), top(b)
	inter := 0
	for v := range ta {
		if tb[v] {
			inter++
		}
	}
	kk := k
	if kk > len(a) {
		kk = len(a)
	}
	return float64(inter) / float64(kk)
}
