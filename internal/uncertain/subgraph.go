package uncertain

import "fmt"

// FromEdges builds a graph over n vertices from an edge list. The result
// equals the AddEdge loop over edges: the same checks in the same order
// (so the same error for the same first bad edge), the same edge indices,
// the same per-vertex adjacency order (edge-index order) and Version() ==
// len(edges). It is the loaders' bulk path: degrees are counted into
// offsets and every adjacency list is a capacity-capped window of one
// shared half-edge array, so the build makes a handful of allocations
// instead of one per vertex. edges is not retained.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		n = 0
	}
	m := len(edges)
	g := &Graph{
		n:     n,
		edges: make([]Edge, m),
		uv:    make([]uint64, m),
		adj:   make([][]halfEdge, n),
		index: make([]int32, indexSize(m)),
	}
	off := make([]int, n+1)
	for i, e := range edges {
		if err := g.checkEdge(e.U, e.V, e.P); err != nil {
			return nil, err
		}
		u, v := min(e.U, e.V), max(e.U, e.V)
		key := pack(u, v)
		slot, dup := g.lookup(key)
		if dup >= 0 {
			return nil, fmt.Errorf("%w: (%d,%d)", ErrDuplicateEdge, e.U, e.V)
		}
		g.edges[i] = Edge{U: u, V: v, P: e.P}
		g.uv[i] = key
		g.index[slot] = int32(i + 1)
		off[u+1]++
		off[v+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	// Each list starts empty with its capacity capped at its degree, so the
	// appends below fill the shared array in place and a later AddEdge on
	// the vertex reallocates instead of overwriting its neighbor's run.
	back := make([]halfEdge, 2*m)
	for v := range g.adj {
		g.adj[v] = back[off[v]:off[v]:off[v+1]]
	}
	for i, e := range g.edges {
		g.adj[e.U] = append(g.adj[e.U], halfEdge{To: e.V, Edge: int32(i)})
		g.adj[e.V] = append(g.adj[e.V], halfEdge{To: e.U, Edge: int32(i)})
	}
	g.version = uint64(m)
	return g, nil
}

// InducedSubgraph returns the subgraph induced by the given vertices,
// relabeled densely 0..len(nodes)-1 in the given order, plus the mapping
// from new ids back to the original ids. Duplicate or out-of-range
// vertices are rejected.
func (g *Graph) InducedSubgraph(nodes []NodeID) (*Graph, []NodeID, error) {
	newID := make(map[NodeID]NodeID, len(nodes))
	back := make([]NodeID, len(nodes))
	for i, v := range nodes {
		if v < 0 || int(v) >= g.n {
			return nil, nil, fmt.Errorf("%w: %d", ErrNodeOutOfRange, v)
		}
		if _, dup := newID[v]; dup {
			return nil, nil, fmt.Errorf("uncertain: duplicate vertex %d in induced set", v)
		}
		newID[v] = NodeID(i)
		back[i] = v
	}
	sub := New(len(nodes))
	for _, e := range g.edges {
		u, okU := newID[e.U]
		v, okV := newID[e.V]
		if okU && okV {
			if err := sub.AddEdge(u, v, e.P); err != nil {
				return nil, nil, err
			}
		}
	}
	return sub, back, nil
}

// ThresholdWorld returns the deterministic world containing exactly the
// edges with probability >= tau. ThresholdWorld(0.5) is the most probable
// world; ThresholdWorld(~0) approaches the support graph.
func (g *Graph) ThresholdWorld(tau float64) *World {
	w := &World{g: g, bits: NewBitset(len(g.edges))}
	for i, e := range g.edges {
		if e.P >= tau {
			w.bits.Set(i)
			w.m++
		}
	}
	return w
}

// SupportComponents returns the connected components of the support graph
// (every edge with p > 0 counted as present), largest first. Useful for
// understanding what reliability can ever connect.
func (g *Graph) SupportComponents() [][]NodeID {
	w := &World{g: g, bits: NewBitset(len(g.edges))}
	for i, e := range g.edges {
		if e.P > 0 {
			w.bits.Set(i)
			w.m++
		}
	}
	labels := w.ComponentLabels()
	groups := make(map[int32][]NodeID)
	for v, l := range labels {
		groups[l] = append(groups[l], NodeID(v))
	}
	out := make([][]NodeID, 0, len(groups))
	for _, members := range groups {
		out = append(out, members)
	}
	// Largest first; tie-break on smallest member for determinism.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if len(b) > len(a) || (len(b) == len(a) && b[0] < a[0]) {
				out[j-1], out[j] = b, a
			} else {
				break
			}
		}
	}
	return out
}
