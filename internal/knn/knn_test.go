package knn

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"chameleon/internal/gen"
	"chameleon/internal/reliability"
	"chameleon/internal/uncertain"
)

func lineGraph(n int, p float64) *uncertain.Graph {
	g := uncertain.New(n)
	for i := 0; i < n-1; i++ {
		g.MustAddEdge(uncertain.NodeID(i), uncertain.NodeID(i+1), p)
	}
	return g
}

func TestQueryRanksByReliability(t *testing.T) {
	// Path with decaying reliability from node 0: neighbors must come
	// back in hop order.
	g := lineGraph(6, 0.6)
	est := reliability.Estimator{Samples: 5000, Seed: 1}
	got, err := Query(g, 0, 3, est)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d neighbors, want 3", len(got))
	}
	for i, want := range []uncertain.NodeID{1, 2, 3} {
		if got[i].Node != want {
			t.Fatalf("neighbor %d = %d, want %d", i, got[i].Node, want)
		}
	}
	// Reliabilities must be decreasing and near 0.6^hops.
	for i, hops := range []float64{1, 2, 3} {
		want := math.Pow(0.6, hops)
		if math.Abs(got[i].Reliability-want) > 0.05 {
			t.Fatalf("neighbor %d reliability %v, want ~%v", i, got[i].Reliability, want)
		}
	}
}

func TestQueryExcludesUnreachable(t *testing.T) {
	g := uncertain.New(5)
	g.MustAddEdge(0, 1, 0.9)
	// Nodes 2..4 disconnected from 0.
	est := reliability.Estimator{Samples: 500, Seed: 2}
	got, err := Query(g, 0, 10, est)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Node != 1 {
		t.Fatalf("only node 1 is reachable, got %+v", got)
	}
}

func TestQueryErrors(t *testing.T) {
	g := lineGraph(4, 0.5)
	est := reliability.Estimator{Samples: 10}
	if _, err := Query(g, -1, 2, est); err == nil {
		t.Fatal("negative source should error")
	}
	if _, err := Query(g, 9, 2, est); err == nil {
		t.Fatal("out-of-range source should error")
	}
	if _, err := Query(g, 0, 0, est); err == nil {
		t.Fatal("k=0 should error")
	}
}

func TestJaccard(t *testing.T) {
	a := []Neighbor{{Node: 1}, {Node: 2}, {Node: 3}}
	b := []Neighbor{{Node: 2}, {Node: 3}, {Node: 4}}
	if got := Jaccard(a, b); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Jaccard = %v, want 0.5", got)
	}
	if Jaccard(nil, nil) != 1 {
		t.Fatal("two empty sets are identical")
	}
	if Jaccard(a, nil) != 0 {
		t.Fatal("empty vs nonempty should be 0")
	}
	if Jaccard(a, a) != 1 {
		t.Fatal("identical sets should be 1")
	}
}

func TestPreservationIdenticalGraphs(t *testing.T) {
	g, err := gen.BarabasiAlbert(80, 2, gen.UniformProbs(0.3, 0.9), rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	est := reliability.Estimator{Samples: 300, Seed: 3}
	score, err := PreservationScore(g, g.Clone(), PreservationOptions{K: 5, Queries: 10, Seed: 4}, est)
	if err != nil {
		t.Fatal(err)
	}
	if score != 1 {
		t.Fatalf("identical graphs should preserve k-NN perfectly, got %v", score)
	}
}

func TestPreservationDetectsDestruction(t *testing.T) {
	g, err := gen.BarabasiAlbert(80, 2, gen.UniformProbs(0.3, 0.9), rand.New(rand.NewPCG(2, 1)))
	if err != nil {
		t.Fatal(err)
	}
	// Destroy: zero all probabilities.
	dead := g.Clone()
	for i := 0; i < dead.NumEdges(); i++ {
		if err := dead.SetProb(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	est := reliability.Estimator{Samples: 300, Seed: 5}
	score, err := PreservationScore(g, dead, PreservationOptions{K: 5, Queries: 10, Seed: 6}, est)
	if err != nil {
		t.Fatal(err)
	}
	if score > 0.01 {
		t.Fatalf("a dead graph preserves nothing, got %v", score)
	}
}

func TestPreservationMismatch(t *testing.T) {
	g := lineGraph(5, 0.5)
	h := lineGraph(6, 0.5)
	est := reliability.Estimator{Samples: 10}
	if _, err := PreservationScore(g, h, PreservationOptions{}, est); err == nil {
		t.Fatal("size mismatch should error")
	}
}

func TestPreservationDefaults(t *testing.T) {
	g := lineGraph(20, 0.7)
	est := reliability.Estimator{Samples: 100, Seed: 7}
	score, err := PreservationScore(g, g.Clone(), PreservationOptions{}, est)
	if err != nil {
		t.Fatal(err)
	}
	if score != 1 {
		t.Fatalf("score = %v", score)
	}
}

// referenceQuery is Query as it was before the bounded heap: every
// vertex with nonzero reliability, sorted, then cut to k.
func referenceQuery(rel []float64, src uncertain.NodeID, k int) []Neighbor {
	var out []Neighbor
	for v, r := range rel {
		if uncertain.NodeID(v) == src || r <= 0 {
			continue
		}
		out = append(out, Neighbor{Node: uncertain.NodeID(v), Reliability: r})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Reliability != out[j].Reliability {
			return out[i].Reliability > out[j].Reliability
		}
		return out[i].Node < out[j].Node
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// TestQueryMatchesSortReference: the bounded top-k returns exactly the
// list sort-then-truncate returns, for every source, with k below, at and
// above the number of reachable vertices. Eight worlds make reliabilities
// multiples of 1/8, so most of the answer is ties broken by id.
func TestQueryMatchesSortReference(t *testing.T) {
	g, err := gen.BarabasiAlbert(120, 2, gen.UniformProbs(0.05, 0.6), rand.New(rand.NewPCG(3, 3)))
	if err != nil {
		t.Fatal(err)
	}
	for _, est := range []reliability.Estimator{
		{Samples: 8, Seed: 1},
		{Samples: 200, Seed: 2, Cache: reliability.NewLabelCache()},
	} {
		aboveReach := 0
		for src := uncertain.NodeID(0); int(src) < g.NumNodes(); src++ {
			rel := est.ReliabilityVector(g, src)
			for _, k := range []int{1, 3, 8, 40, g.NumNodes() + 5} {
				want := referenceQuery(rel, src, k)
				if len(want) < k {
					aboveReach++
				}
				got, err := Query(g, src, k, est)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("N=%d src %d k %d: %d neighbors, reference %d", est.Samples, src, k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("N=%d src %d k %d: neighbor %d = %+v, reference %+v", est.Samples, src, k, i, got[i], want[i])
					}
				}
			}
		}
		if aboveReach == 0 {
			t.Fatalf("N=%d: no query asked for more neighbors than were reachable", est.Samples)
		}
	}
}
