package uncertain

import (
	"math/rand/v2"

	"chameleon/internal/unionfind"
)

// World is one possible world of an uncertain graph: a deterministic simple
// graph over the same vertex set containing a subset of the edges. Presence
// is stored as a packed bitset (one bit per edge index), so per-world scans
// iterate set bits word-parallel instead of one bool per edge.
//
// A World keeps a reference to the graph it was sampled from so that edge
// identities (indices) stay aligned between the two.
//
// The zero value is an empty world not bound to any graph; it becomes
// usable once a WorldSampler samples into it.
type World struct {
	g    *Graph
	bits Bitset // per edge index
	m    int    // number of present edges
}

// SampleWorld draws one possible world of g: each edge is included
// independently with its probability, using rng as the randomness source.
// One Float64 is consumed per edge with 0 < p < 1, in edge-index order;
// WorldSampler.SampleInto draws the identical world from the same PCG
// state without allocating.
func (g *Graph) SampleWorld(rng *rand.Rand) *World {
	w := &World{g: g, bits: NewBitset(len(g.edges))}
	for i, e := range g.edges {
		if e.P >= 1 || (e.P > 0 && rng.Float64() < e.P) {
			w.bits.Set(i)
			w.m++
		}
	}
	return w
}

// MostProbableWorld returns the world that includes exactly the edges with
// p >= 0.5, which maximizes the world probability under independence.
func (g *Graph) MostProbableWorld() *World { return g.ThresholdWorld(0.5) }

// WorldFromMask builds a world from an explicit edge-presence mask.
// The mask is copied (packed) rather than referenced.
func (g *Graph) WorldFromMask(present []bool) *World {
	if len(present) != len(g.edges) {
		panic("uncertain: mask length mismatch")
	}
	w := &World{g: g, bits: BitsetFromMask(present)}
	w.m = w.bits.Count()
	return w
}

// Source returns the graph this world was sampled from.
func (w *World) Source() *Graph { return w.g }

// NumNodes returns |V|.
func (w *World) NumNodes() int { return w.g.n }

// NumEdges returns the number of edges present in this world.
func (w *World) NumEdges() int { return w.m }

// Present reports whether edge i of the underlying uncertain graph is
// present in this world.
func (w *World) Present(i int) bool { return w.bits.Get(i) }

// SetPresence forces edge i to the given presence, adjusting the edge
// count. Used by conditional estimators that pin one edge while keeping
// the rest of a sampled world (common-random-numbers conditioning).
func (w *World) SetPresence(i int, present bool) {
	if w.bits.Get(i) == present {
		return
	}
	if present {
		w.bits.Set(i)
		w.m++
	} else {
		w.bits.Clear(i)
		w.m--
	}
}

// Bits returns the internal presence bitset. The caller must not mutate
// it; use SetPresence to modify a world.
func (w *World) Bits() Bitset { return w.bits }

// PresenceMask returns the presence mask unpacked into a fresh bool slice.
// It allocates; hot paths should iterate Bits instead.
func (w *World) PresenceMask() []bool { return w.bits.Mask(len(w.g.edges)) }

// Degree returns the degree of v in this world.
func (w *World) Degree(v NodeID) int {
	d := 0
	for _, he := range w.g.adj[v] {
		if w.bits.Get(int(he.Edge)) {
			d++
		}
	}
	return d
}

// Neighbors appends v's neighbors in this world to buf and returns it.
func (w *World) Neighbors(v NodeID, buf []NodeID) []NodeID {
	for _, he := range w.g.adj[v] {
		if w.bits.Get(int(he.Edge)) {
			buf = append(buf, he.To)
		}
	}
	return buf
}

// ComponentsInto unions this world's edges into d, resetting it first.
// A nil d (or one sized for a different vertex count) is replaced by a
// fresh structure; the possibly-new DSU is returned. Edges are unioned in
// ascending index order, so the resulting parent forest is identical
// however the DSU is recycled.
func (w *World) ComponentsInto(d *unionfind.DSU) *unionfind.DSU {
	d, _ = w.ComponentsPairsInto(d)
	return d
}

// ComponentsPairsInto is ComponentsInto fused with the connected-pair
// count: merging components of sizes a and b connects a*b pairs, so the
// count falls out of the union loop and skips ConnectedPairs' O(|V|) root
// scan. This is the per-world call of the Monte Carlo estimators.
func (w *World) ComponentsPairsInto(d *unionfind.DSU) (*unionfind.DSU, int64) {
	if d == nil || d.Len() != w.g.n {
		d = unionfind.New(w.g.n)
	} else {
		d.Reset()
	}
	pairs := d.UnionBitsetEdges(w.bits, w.g.uv)
	return d, pairs
}

// Components returns the union-find structure over this world's edges.
func (w *World) Components() *unionfind.DSU {
	return w.ComponentsInto(nil)
}

// ComponentLabels returns a vector mapping each vertex to a canonical
// component representative.
func (w *World) ComponentLabels() []int32 {
	d := w.Components()
	labels := make([]int32, w.g.n)
	for v := 0; v < w.g.n; v++ {
		labels[v] = int32(d.Find(v))
	}
	return labels
}

// ConnectedPairs returns the number of unordered vertex pairs that are
// connected in this world.
func (w *World) ConnectedPairs() int64 {
	return w.Components().ConnectedPairs()
}

// BFSDistances computes single-source shortest-path hop distances from src
// in this world. Unreachable vertices get -1.
func (w *World) BFSDistances(src NodeID) []int32 {
	dist := make([]int32, w.g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]NodeID, 0, 64)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, he := range w.g.adj[u] {
			if w.bits.Get(int(he.Edge)) && dist[he.To] < 0 {
				dist[he.To] = dist[u] + 1
				queue = append(queue, he.To)
			}
		}
	}
	return dist
}

// AdjacencyLists materializes the world's adjacency lists; useful for
// algorithms that iterate neighborhoods repeatedly (e.g. clustering
// coefficient, ANF).
func (w *World) AdjacencyLists() [][]NodeID {
	deg := make([]int, w.g.n)
	for i, e := range w.g.edges {
		if w.bits.Get(i) {
			deg[e.U]++
			deg[e.V]++
		}
	}
	lists := make([][]NodeID, w.g.n)
	for v := range lists {
		lists[v] = make([]NodeID, 0, deg[v])
	}
	for i, e := range w.g.edges {
		if w.bits.Get(i) {
			lists[e.U] = append(lists[e.U], e.V)
			lists[e.V] = append(lists[e.V], e.U)
		}
	}
	return lists
}
