// Package knn implements reliability-based k-nearest-neighbor queries
// over uncertain graphs, following the query model of Potamias et al.
// ("k-nearest neighbors in uncertain graphs", VLDB 2010 — reference [30]
// of the paper): the neighbors of a query vertex are the vertices most
// likely to be connected to it across the possible worlds.
//
// The paper uses exactly this workload to motivate reliability as the
// utility measure, so the package doubles as a downstream-task utility
// probe: PreservationScore measures how much of the k-NN structure an
// anonymized graph retains.
package knn

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"chameleon/internal/reliability"
	"chameleon/internal/uncertain"
)

// Neighbor is one query answer: a vertex and its estimated two-terminal
// reliability from the query source.
type Neighbor struct {
	Node        uncertain.NodeID
	Reliability float64
}

// Query returns the k vertices with the highest reliability from src,
// most reliable first. Vertices with zero estimated reliability are never
// returned, so the result may be shorter than k. Ties are broken by
// vertex id for determinism.
func Query(g *uncertain.Graph, src uncertain.NodeID, k int, est reliability.Estimator) ([]Neighbor, error) {
	if src < 0 || int(src) >= g.NumNodes() {
		return nil, fmt.Errorf("knn: source %d out of range (n=%d)", src, g.NumNodes())
	}
	if k < 1 {
		return nil, fmt.Errorf("knn: k must be >= 1, got %d", k)
	}
	rel := est.ReliabilityVector(g, src)
	// top is a min-heap of the best k so far, the weakest at the root.
	// Vertices arrive in id order, so a newcomer tying the root's
	// reliability ranks after it and is rejected.
	top := make([]Neighbor, 0, min(k, len(rel)))
	for v, r := range rel {
		if uncertain.NodeID(v) == src || r <= 0 {
			continue
		}
		nb := Neighbor{Node: uncertain.NodeID(v), Reliability: r}
		if len(top) < k {
			top = append(top, nb)
			siftUp(top, len(top)-1)
		} else if r > top[0].Reliability {
			top[0] = nb
			siftDown(top, 0)
		}
	}
	slices.SortFunc(top, func(a, b Neighbor) int {
		if weaker(a, b) {
			return 1
		}
		return -1 // nodes are distinct, so no two entries tie
	})
	return top, nil
}

// weaker reports whether a ranks after b: lower reliability, or the same
// reliability and a larger id.
func weaker(a, b Neighbor) bool {
	if a.Reliability != b.Reliability {
		return a.Reliability < b.Reliability
	}
	return a.Node > b.Node
}

func siftUp(h []Neighbor, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !weaker(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func siftDown(h []Neighbor, i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(h) && weaker(h[l], h[m]) {
			m = l
		}
		if r := 2*i + 2; r < len(h) && weaker(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Jaccard computes the Jaccard similarity of two answer sets (ignoring
// the reliability scores). Two empty sets are identical by convention.
func Jaccard(a, b []Neighbor) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inA := make(map[uncertain.NodeID]bool, len(a))
	for _, n := range a {
		inA[n.Node] = true
	}
	inter := 0
	union := len(a)
	for _, n := range b {
		if inA[n.Node] {
			inter++
		} else {
			union++
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// PreservationOptions configures PreservationScore.
type PreservationOptions struct {
	// K is the neighborhood size (default 10).
	K int
	// Queries is the number of random query vertices (default 20).
	Queries int
	// Seed drives query selection.
	Seed uint64
}

// PreservationScore measures how well the published graph answers k-NN
// queries like the original: the mean Jaccard similarity of the top-K
// reliability neighborhoods over random query vertices. 1 means the
// anonymization left the k-NN structure intact.
func PreservationScore(orig, pub *uncertain.Graph, o PreservationOptions, est reliability.Estimator) (float64, error) {
	if orig.NumNodes() != pub.NumNodes() {
		return 0, fmt.Errorf("knn: vertex count mismatch %d vs %d", orig.NumNodes(), pub.NumNodes())
	}
	if o.K <= 0 {
		o.K = 10
	}
	if o.Queries <= 0 {
		o.Queries = 20
	}
	rng := rand.New(rand.NewPCG(o.Seed, 0x4e4e))
	var total float64
	for q := 0; q < o.Queries; q++ {
		src := uncertain.NodeID(rng.IntN(orig.NumNodes()))
		before, err := Query(orig, src, o.K, est)
		if err != nil {
			return 0, err
		}
		after, err := Query(pub, src, o.K, est)
		if err != nil {
			return 0, err
		}
		total += Jaccard(before, after)
	}
	return total / float64(o.Queries), nil
}
