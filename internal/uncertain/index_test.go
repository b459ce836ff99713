package uncertain

import (
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
)

// FuzzGraphIndex drives one graph through a byte-coded run of AddEdge,
// SetProb, Clone and FromEdges calls on 24 vertices — few enough that the
// small tables fill their runs and wrap — and holds EdgeIndex to a map
// model after every call: each present pair in both orientations and
// every absent pair. The table must be at most half full and slot for
// slot the one that inserting the edges in index order builds, and a
// clone's base must read as it did when it was cloned.
func FuzzGraphIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 2, 3, 2, 0, 0, 0, 4, 5, 0, 5, 6, 3, 0, 0})
	f.Add([]byte{2, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 0, 0, 6, 3, 0, 0, 0, 1, 7})
	f.Add([]byte{0, 3, 9, 0, 9, 3, 1, 7, 0, 4, 0, 0, 2, 0, 0, 0, 22, 23, 3, 0, 0, 0, 22, 23})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 24
		g := New(n)
		model := map[[2]NodeID]int{}
		var (
			base      *Graph
			baseEdges []Edge
		)
		check := func(step int) {
			t.Helper()
			if 2*g.NumEdges() > len(g.index) {
				t.Fatalf("step %d: %d edges in %d slots", step, g.NumEdges(), len(g.index))
			}
			if want := insertedInOrder(g); !slices.Equal(g.index, want) {
				t.Fatalf("step %d: table %v, want %v as built in index order", step, g.index, want)
			}
			for u := NodeID(0); u < n; u++ {
				for v := NodeID(0); v < n; v++ {
					want, ok := model[[2]NodeID{min(u, v), max(u, v)}]
					if !ok {
						want = -1
					}
					if got := g.EdgeIndex(u, v); got != want {
						t.Fatalf("step %d: EdgeIndex(%d,%d) = %d, want %d", step, u, v, got, want)
					}
				}
			}
			if base != nil {
				for i, e := range baseEdges {
					if base.EdgeIndex(e.U, e.V) != i || base.Edge(i) != e {
						t.Fatalf("step %d: base edge %d (%d,%d) changed under its clone", step, i, e.U, e.V)
					}
				}
			}
		}
		for step := 0; step+2 < len(ops) && step < 3*200; step += 3 {
			op, a, b := ops[step], NodeID(ops[step+1]%n), NodeID(ops[step+2]%n)
			switch op % 4 {
			case 0:
				err := g.AddEdge(a, b, float64(op)/255)
				_, dup := model[[2]NodeID{min(a, b), max(a, b)}]
				if (err == nil) != (a != b && !dup) {
					t.Fatalf("step %d: AddEdge(%d,%d) = %v with the pair present %v", step, a, b, err, dup)
				}
				if err == nil {
					model[[2]NodeID{min(a, b), max(a, b)}] = g.NumEdges() - 1
				}
			case 1:
				if m := g.NumEdges(); m > 0 {
					if err := g.SetProb(int(a)%m, float64(b)/n); err != nil {
						t.Fatal(err)
					}
				}
			case 2:
				base, baseEdges = g, g.Edges()
				g, model = g.Clone(), maps.Clone(model)
			case 3:
				h, err := FromEdges(n, g.Edges())
				if err != nil {
					t.Fatal(err)
				}
				g, base = h, nil
			}
			check(step)
		}
	})
}

// insertedInOrder is the table that inserting g's edges in index order
// builds in an empty table of g's table length.
func insertedInOrder(g *Graph) []int32 {
	want := make([]int32, len(g.index))
	mask := len(want) - 1
	for i, key := range g.uv {
		s := home(key, mask)
		for want[s] != 0 {
			s = (s + 1) & mask
		}
		want[s] = int32(i + 1)
	}
	return want
}

// maxProbe is the longest probe any key of g's index takes: one plus the
// largest distance, with wraparound, from a key's home to its slot.
func maxProbe(g *Graph) int {
	mask := len(g.index) - 1
	longest := 0
	for s, e := range g.index {
		if e != 0 {
			longest = max(longest, (s-home(g.uv[e-1], mask))&mask+1)
		}
	}
	return longest
}

// TestIndexProbeChainsOnStructuredIDs bounds the longest probe on inputs
// whose keys are as regular as node IDs get — a 300x300 grid, a star of
// 100k leaves, a 100k-vertex path of consecutive pairs and all pairs of
// 500 consecutive vertices — under the process's hash seed and a few
// fixed ones, 0 among them. At most half full, linear probing with a
// mixing hash keeps the longest run far below the bound; a hash that let
// structured keys collide would put thousands of keys in one run.
func TestIndexProbeChainsOnStructuredIDs(t *testing.T) {
	const side = 300
	var grid, star, path, clique []Edge
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := NodeID(r*side + c)
			if c+1 < side {
				grid = append(grid, Edge{U: v, V: v + 1, P: 0.5})
			}
			if r+1 < side {
				grid = append(grid, Edge{U: v, V: v + side, P: 0.5})
			}
		}
	}
	for v := NodeID(1); v <= 100_000; v++ {
		star = append(star, Edge{U: 0, V: v, P: 0.5})
		path = append(path, Edge{U: v - 1, V: v, P: 0.5})
	}
	for u := NodeID(0); u < 500; u++ {
		for v := u + 1; v < 500; v++ {
			clique = append(clique, Edge{U: u, V: v, P: 0.5})
		}
	}
	cases := []struct {
		name  string
		n     int
		edges []Edge
	}{
		{"grid", side * side, grid},
		{"star", 100_001, star},
		{"path", 100_001, path},
		{"clique", 500, clique},
	}
	defer func(seed uint64) { hashSeed = seed }(hashSeed)
	for _, seed := range []uint64{hashSeed, 0, 1, 0xFFFFFFFF, 0x9e3779b97f4a7c15} {
		hashSeed = seed
		for _, c := range cases {
			g, err := FromEdges(c.n, c.edges)
			if err != nil {
				t.Fatal(err)
			}
			if got := maxProbe(g); got > 64 {
				t.Errorf("seed %#x, %s (%d edges): longest probe %d slots, want <= 64", seed, c.name, len(c.edges), got)
			}
		}
	}
}

// BenchmarkEdgeIndex times EdgeIndex on a 100k-edge graph: hit looks up
// the edges themselves (endpoints swapped), miss as many uniformly drawn
// absent pairs.
func BenchmarkEdgeIndex(b *testing.B) {
	g := randomV2Graph(b, 0xF0, fmtBenchNodes, fmtBenchEdges, true)
	rng := rand.New(rand.NewPCG(3, 4))
	var hits, misses [][2]NodeID
	for _, e := range g.Edges() {
		hits = append(hits, [2]NodeID{e.V, e.U})
	}
	for len(misses) < len(hits) {
		u, v := NodeID(rng.IntN(fmtBenchNodes)), NodeID(rng.IntN(fmtBenchNodes))
		if u != v && !g.HasEdge(u, v) {
			misses = append(misses, [2]NodeID{u, v})
		}
	}
	for _, c := range []struct {
		name  string
		pairs [][2]NodeID
		want  func(int) bool
	}{
		{"hit", hits, func(i int) bool { return i >= 0 }},
		{"miss", misses, func(i int) bool { return i < 0 }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := c.pairs[i%len(c.pairs)]
				if !c.want(g.EdgeIndex(p[0], p[1])) {
					b.Fatalf("EdgeIndex(%d,%d) answered wrong", p[0], p[1])
				}
			}
		})
	}
}
