package uncertain

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// addEdgeLoop is the reference FromEdges must reproduce: New plus one
// AddEdge per edge, stopping at the first error.
func addEdgeLoop(n int, edges []Edge) (*Graph, error) {
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdge(e.U, e.V, e.P); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// sameGraph reports the first difference between want and got in what
// FromEdges promises to share with the AddEdge loop: vertex count, the
// edge list in index order, every vertex's Neighbors and IncidentEdges
// order, EdgeIndex (over all vertex pairs when n is small, and over both
// orientations of every edge plus the index size otherwise) and Version.
// It returns "" when they agree.
func sameGraph(want, got *Graph) string {
	if want.NumNodes() != got.NumNodes() {
		return fmt.Sprintf("NumNodes %d, want %d", got.NumNodes(), want.NumNodes())
	}
	if !slices.Equal(want.Edges(), got.Edges()) {
		return "edge lists differ"
	}
	var wn, gn []NodeID
	var wi, gi []int32
	for v := NodeID(0); int(v) < want.NumNodes(); v++ {
		wn, gn = want.Neighbors(v, wn[:0]), got.Neighbors(v, gn[:0])
		if !slices.Equal(wn, gn) {
			return fmt.Sprintf("Neighbors(%d) = %v, want %v", v, gn, wn)
		}
		wi, gi = want.IncidentEdges(v, wi[:0]), got.IncidentEdges(v, gi[:0])
		if !slices.Equal(wi, gi) {
			return fmt.Sprintf("IncidentEdges(%d) = %v, want %v", v, gi, wi)
		}
	}
	if n := want.NumNodes(); n <= 512 {
		for u := NodeID(0); int(u) < n; u++ {
			for v := NodeID(0); int(v) < n; v++ {
				if want.EdgeIndex(u, v) != got.EdgeIndex(u, v) {
					return fmt.Sprintf("EdgeIndex(%d,%d) = %d, want %d", u, v, got.EdgeIndex(u, v), want.EdgeIndex(u, v))
				}
			}
		}
	} else {
		if w, g := indexed(want), indexed(got); w != g {
			return fmt.Sprintf("index holds %d pairs, want %d", g, w)
		}
		for i, e := range want.edges {
			if got.EdgeIndex(e.U, e.V) != i || got.EdgeIndex(e.V, e.U) != i {
				return fmt.Sprintf("EdgeIndex of edge %d (%d,%d) differs", i, e.U, e.V)
			}
		}
	}
	if want.Version() != got.Version() {
		return fmt.Sprintf("Version %d, want %d", got.Version(), want.Version())
	}
	return ""
}

// indexed counts the edge index's occupied slots.
func indexed(g *Graph) int {
	n := 0
	for _, e := range g.index {
		if e != 0 {
			n++
		}
	}
	return n
}

// baEdges is a preferential-attachment edge list: each new vertex v links
// to mPer distinct earlier vertices, about half of them drawn in
// proportion to degree.
// Edges are listed as (v, earlier), so every endpoint pair is reversed.
func baEdges(seed uint64, n, mPer int) []Edge {
	rng := rand.New(rand.NewPCG(seed, 7))
	seen := make(map[[2]NodeID]bool)
	var ends, edges = []NodeID{}, []Edge{}
	for v := NodeID(1); int(v) < n; v++ {
		for k := 0; k < mPer && k < int(v); {
			u := NodeID(rng.IntN(int(v)))
			if len(ends) > 0 && rng.IntN(2) == 0 {
				u = ends[rng.IntN(len(ends))]
			}
			if u == v || seen[[2]NodeID{u, v}] {
				continue
			}
			seen[[2]NodeID{u, v}] = true
			edges = append(edges, Edge{U: v, V: u, P: Quantize16(rng.Float64())})
			ends = append(ends, u, v)
			k++
		}
	}
	return edges
}

// reversed swaps the endpoints of every edge.
func reversed(edges []Edge) []Edge {
	out := make([]Edge, len(edges))
	for i, e := range edges {
		out[i] = Edge{U: e.V, V: e.U, P: e.P}
	}
	return out
}

// TestFromEdgesMatchesAddEdge holds the bulk build to the AddEdge loop on
// the BA/ER corpus, in input order, with reversed endpoints and on graphs
// with isolated vertices.
func TestFromEdgesMatchesAddEdge(t *testing.T) {
	er := randomV2Graph(t, 21, 300, 900, false).Edges()
	ba := baEdges(22, 400, 3)
	cases := []struct {
		name  string
		n     int
		edges []Edge
	}{
		{"er", 300, er},
		{"er/reversed", 300, reversed(er)},
		{"ba", 400, ba},
		{"ba/canonical", 400, reversed(ba)},
		{"ba/large", 2000, baEdges(23, 2000, 2)},
		{"isolated", 10, []Edge{{7, 2, 0.5}, {2, 9, 1}, {9, 7, 0}}},
		{"empty", 5, nil},
		{"no vertices", 0, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := addEdgeLoop(c.n, c.edges)
			if err != nil {
				t.Fatal(err)
			}
			got, err := FromEdges(c.n, c.edges)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameGraph(want, got); diff != "" {
				t.Fatal(diff)
			}
			// Appending to a bulk-built vertex must not overwrite the
			// neighboring vertex's run of the shared half-edge array.
			if c.n >= 3 {
				for u := NodeID(0); int(u) < c.n; u++ {
					v := (u + 1) % NodeID(c.n)
					if !want.HasEdge(u, v) {
						want.MustAddEdge(u, v, 0.5)
						got.MustAddEdge(u, v, 0.5)
					}
				}
				if diff := sameGraph(want, got); diff != "" {
					t.Fatalf("after AddEdge: %s", diff)
				}
			}
		})
	}
}

// TestFromEdgesFirstBadEdge pins FromEdges to the AddEdge loop's error for
// the first bad edge of every kind, including a bad edge that follows a
// different one.
func TestFromEdgesFirstBadEdge(t *testing.T) {
	ok := []Edge{{0, 1, 0.5}, {3, 1, 0.25}, {2, 4, 1}}
	with := func(bad ...Edge) []Edge { return append(slices.Clone(ok), bad...) }
	cases := []struct {
		name  string
		edges []Edge
		want  error
	}{
		{"out of range", with(Edge{1, 5, 0.5}), ErrNodeOutOfRange},
		{"negative endpoint", with(Edge{-1, 2, 0.5}), ErrNodeOutOfRange},
		{"self-loop", with(Edge{2, 2, 0.5}), ErrSelfLoop},
		{"duplicate", with(Edge{0, 1, 0.75}), ErrDuplicateEdge},
		{"reversed duplicate", with(Edge{1, 3, 0.75}), ErrDuplicateEdge},
		{"NaN probability", with(Edge{0, 2, math.NaN()}), ErrBadProbability},
		{"negative probability", with(Edge{0, 2, -0.1}), ErrBadProbability},
		{"probability above 1", with(Edge{0, 2, 1.5}), ErrBadProbability},
		{"self-loop before out of range", with(Edge{3, 3, 0.5}, Edge{0, 9, 0.5}), ErrSelfLoop},
		{"duplicate before bad probability", with(Edge{4, 2, 0.5}, Edge{0, 3, 2}), ErrDuplicateEdge},
		{"bad probability before duplicate", with(Edge{0, 3, -1}, Edge{1, 0, 0.5}), ErrBadProbability},
		{"out of range with bad probability", with(Edge{0, 7, math.NaN()}), ErrNodeOutOfRange},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, want := addEdgeLoop(5, c.edges)
			g, got := FromEdges(5, c.edges)
			if g != nil || !errors.Is(got, c.want) || !errors.Is(want, c.want) {
				t.Fatalf("FromEdges = %v, %v; AddEdge loop error %v; want %v", g, got, want, c.want)
			}
			if got.Error() != want.Error() {
				t.Fatalf("FromEdges error %q, AddEdge loop error %q", got, want)
			}
		})
	}
}
