package uncertain

import (
	"math/rand/v2"
	"testing"
)

func pathGraph(t *testing.T, n int, p float64) *Graph {
	t.Helper()
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.MustAddEdge(NodeID(i), NodeID(i+1), p)
	}
	return g
}

func TestSampleWorldExtremes(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 0)
	g.MustAddEdge(1, 2, 1)
	rng := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 50; i++ {
		w := g.SampleWorld(rng)
		if w.Present(0) {
			t.Fatal("p=0 edge must never be present")
		}
		if !w.Present(1) {
			t.Fatal("p=1 edge must always be present")
		}
		if w.NumEdges() != 1 {
			t.Fatalf("NumEdges = %d, want 1", w.NumEdges())
		}
	}
}

func TestSampleWorldDeterministicPerSeed(t *testing.T) {
	g := pathGraph(t, 20, 0.5)
	w1 := g.SampleWorld(rand.New(rand.NewPCG(7, 9)))
	w2 := g.SampleWorld(rand.New(rand.NewPCG(7, 9)))
	for i := 0; i < g.NumEdges(); i++ {
		if w1.Present(i) != w2.Present(i) {
			t.Fatal("same seed must produce the same world")
		}
	}
}

func TestSampleWorldFrequency(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1, 0.3)
	rng := rand.New(rand.NewPCG(3, 4))
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if g.SampleWorld(rng).Present(0) {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.28 || got > 0.32 {
		t.Fatalf("edge frequency %v, want ~0.3", got)
	}
}

func TestMostProbableWorld(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 0.9)
	g.MustAddEdge(1, 2, 0.5)
	g.MustAddEdge(2, 3, 0.1)
	w := g.MostProbableWorld()
	if !w.Present(0) || !w.Present(1) || w.Present(2) {
		t.Fatalf("MP world should include p >= 0.5 only; got %v %v %v",
			w.Present(0), w.Present(1), w.Present(2))
	}
}

func TestWorldFromMask(t *testing.T) {
	g := pathGraph(t, 3, 0.5)
	w := g.WorldFromMask([]bool{true, false})
	if !w.Present(0) || w.Present(1) || w.NumEdges() != 1 {
		t.Fatal("mask not honored")
	}
	// The mask must be copied.
	mask := []bool{true, true}
	w2 := g.WorldFromMask(mask)
	mask[0] = false
	if !w2.Present(0) {
		t.Fatal("WorldFromMask must copy the mask")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short mask should panic")
		}
	}()
	g.WorldFromMask([]bool{true})
}

func TestWorldDegreeAndNeighbors(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 2, 1)
	g.MustAddEdge(0, 3, 1)
	w := g.WorldFromMask([]bool{true, true, false})
	if w.Degree(0) != 2 {
		t.Fatalf("Degree(0) = %d, want 2", w.Degree(0))
	}
	if w.Degree(3) != 0 {
		t.Fatalf("Degree(3) = %d, want 0", w.Degree(3))
	}
	nbrs := w.Neighbors(0, nil)
	if len(nbrs) != 2 {
		t.Fatalf("Neighbors(0) = %v", nbrs)
	}
}

func TestWorldComponents(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(3, 4, 1)
	w := g.MostProbableWorld()
	if got := w.ConnectedPairs(); got != 4 {
		t.Fatalf("ConnectedPairs = %d, want 4", got)
	}
	labels := w.ComponentLabels()
	if labels[0] != labels[2] {
		t.Fatal("0 and 2 should share a component")
	}
	if labels[0] == labels[3] {
		t.Fatal("0 and 3 should not share a component")
	}
}

func TestBFSDistances(t *testing.T) {
	g := pathGraph(t, 5, 1)
	w := g.MostProbableWorld()
	dist := w.BFSDistances(0)
	for i, want := range []int32{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
}

func TestBFSDistancesUnreachable(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	dist := g.MostProbableWorld().BFSDistances(0)
	if dist[1] != 1 {
		t.Fatalf("dist[1] = %d, want 1", dist[1])
	}
	if dist[2] != -1 || dist[3] != -1 {
		t.Fatalf("unreachable nodes should be -1, got %v", dist)
	}
}

func TestAdjacencyListsMatchNeighbors(t *testing.T) {
	g := New(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 2, 1)
	g.MustAddEdge(2, 5, 1)
	w := g.MostProbableWorld()
	adj := w.AdjacencyLists()
	for v := 0; v < 6; v++ {
		if len(adj[v]) != w.Degree(NodeID(v)) {
			t.Fatalf("adj[%d] has %d entries, Degree says %d", v, len(adj[v]), w.Degree(NodeID(v)))
		}
	}
}

func TestWorldGraphBackref(t *testing.T) {
	g := pathGraph(t, 3, 0.5)
	w := g.MostProbableWorld()
	if w.Source() != g {
		t.Fatal("World.Source should return the source graph")
	}
	if w.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", w.NumNodes())
	}
}
