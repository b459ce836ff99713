// Package uncertain implements the uncertain-graph data model used
// throughout the Chameleon framework.
//
// An uncertain graph G = (V, E, p) is a simple undirected graph whose edges
// carry independent existence probabilities. Under possible-world semantics
// the graph denotes a distribution over 2^|E| deterministic graphs, where
// each world materializes every edge independently with its probability.
package uncertain

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// NodeID identifies a vertex. Vertices are dense integers in [0, NumNodes).
type NodeID = int32

// Edge is an undirected uncertain edge with existence probability P.
// Invariant: U < V and 0 <= P <= 1.
type Edge struct {
	U, V NodeID
	P    float64
}

// halfEdge is one direction of an edge in the adjacency structure.
type halfEdge struct {
	To   NodeID
	Edge int32 // index into Graph.edges
}

// Graph is a simple undirected uncertain graph. The zero value is not
// usable; construct with New or FromEdges.
type Graph struct {
	n     int
	edges []Edge
	uv    []uint64 // packed endpoints (u<<32|v) parallel to edges, one
	// load per edge in the bitset union kernel
	adj   [][]halfEdge
	index []int32 // open-addressed table over uv (index.go): edge index + 1, 0 if empty

	// version counts structural mutations (AddEdge, SetProb). It
	// invalidates derived snapshots: the cached WorldSampler below and any
	// external caches keyed by (graph, version), e.g. reliability label
	// caches. Mutation is not safe concurrently with reads; the atomic on
	// sampler only covers concurrent readers of an unchanging graph.
	version uint64
	sampler atomic.Pointer[WorldSampler]
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the i-th edge. Edges keep their insertion index for the
// lifetime of the graph; SetProb mutates probabilities in place.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Edges returns a copy of the edge list.
func (g *Graph) Edges() []Edge {
	return g.AppendEdges(make([]Edge, 0, len(g.edges)))
}

// AppendEdges appends the edge list, in index order, to dst and returns
// the extended slice.
func (g *Graph) AppendEdges(dst []Edge) []Edge {
	return append(dst, g.edges...)
}

// SortedEdges returns the edges ordered by (U, V); useful for deterministic
// output.
func (g *Graph) SortedEdges() []Edge {
	out := g.Edges()
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Common construction and validation errors.
var (
	ErrNodeOutOfRange = errors.New("uncertain: node out of range")
	ErrSelfLoop       = errors.New("uncertain: self-loop not allowed")
	ErrDuplicateEdge  = errors.New("uncertain: duplicate edge")
	ErrBadProbability = errors.New("uncertain: probability outside [0,1]")
	ErrNoSuchEdge     = errors.New("uncertain: no such edge")
)

// New returns an empty uncertain graph over n vertices labeled 0..n-1.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{
		n:     n,
		adj:   make([][]halfEdge, n),
		index: make([]int32, indexSize(0)),
	}
}

// checkEdge applies AddEdge's per-edge checks, in order: endpoint range,
// self-loop, probability in [0,1]. Duplicates are the caller's check.
func (g *Graph) checkEdge(u, v NodeID, p float64) error {
	if u < 0 || int(u) >= g.n || v < 0 || int(v) >= g.n {
		return fmt.Errorf("%w: (%d,%d) with n=%d", ErrNodeOutOfRange, u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("%w: node %d", ErrSelfLoop, u)
	}
	if math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("%w: %v on (%d,%d)", ErrBadProbability, p, u, v)
	}
	return nil
}

// AddEdge inserts the undirected edge {u,v} with probability p.
// It rejects self-loops, duplicate edges, out-of-range endpoints and
// probabilities outside [0,1].
func (g *Graph) AddEdge(u, v NodeID, p float64) error {
	if err := g.checkEdge(u, v, p); err != nil {
		return err
	}
	a, b := min(u, v), max(u, v)
	key := pack(a, b)
	slot, dup := g.lookup(key)
	if dup >= 0 {
		return fmt.Errorf("%w: (%d,%d)", ErrDuplicateEdge, u, v)
	}
	idx := int32(len(g.edges))
	g.edges = append(g.edges, Edge{U: a, V: b, P: p})
	g.uv = append(g.uv, key)
	g.adj[a] = append(g.adj[a], halfEdge{To: b, Edge: idx})
	g.adj[b] = append(g.adj[b], halfEdge{To: a, Edge: idx})
	g.indexLast(slot)
	g.version++
	return nil
}

// MustAddEdge is AddEdge that panics on error; intended for tests and
// literals where the input is known valid.
func (g *Graph) MustAddEdge(u, v NodeID, p float64) {
	if err := g.AddEdge(u, v, p); err != nil {
		panic(err)
	}
}

// EdgeIndex returns the index of edge {u,v}, or -1 if absent.
func (g *Graph) EdgeIndex(u, v NodeID) int {
	_, i := g.lookup(pack(min(u, v), max(u, v)))
	return int(i)
}

// HasEdge reports whether {u,v} is an edge of the graph.
func (g *Graph) HasEdge(u, v NodeID) bool { return g.EdgeIndex(u, v) >= 0 }

// Prob returns the existence probability of edge {u,v}.
func (g *Graph) Prob(u, v NodeID) (float64, error) {
	i := g.EdgeIndex(u, v)
	if i < 0 {
		return 0, fmt.Errorf("%w: (%d,%d)", ErrNoSuchEdge, u, v)
	}
	return g.edges[i].P, nil
}

// SetProb sets the probability of the i-th edge.
func (g *Graph) SetProb(i int, p float64) error {
	if i < 0 || i >= len(g.edges) {
		return fmt.Errorf("%w: index %d", ErrNoSuchEdge, i)
	}
	if math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("%w: %v", ErrBadProbability, p)
	}
	g.edges[i].P = p
	g.version++
	return nil
}

// Degree returns the structural degree of v: the number of incident
// uncertain edges regardless of probability.
func (g *Graph) Degree(v NodeID) int { return len(g.adj[v]) }

// ExpectedDegree returns E[deg(v)] = sum of incident edge probabilities.
func (g *Graph) ExpectedDegree(v NodeID) float64 {
	var s float64
	for _, he := range g.adj[v] {
		s += g.edges[he.Edge].P
	}
	return s
}

// Neighbors appends the neighbors of v to buf and returns it.
// The result is not sorted.
func (g *Graph) Neighbors(v NodeID, buf []NodeID) []NodeID {
	for _, he := range g.adj[v] {
		buf = append(buf, he.To)
	}
	return buf
}

// IncidentEdges appends indices of edges incident to v to buf.
func (g *Graph) IncidentEdges(v NodeID, buf []int32) []int32 {
	for _, he := range g.adj[v] {
		buf = append(buf, he.Edge)
	}
	return buf
}

// IncidentProbs appends the probabilities of edges incident to v to buf.
func (g *Graph) IncidentProbs(v NodeID, buf []float64) []float64 {
	for _, he := range g.adj[v] {
		buf = append(buf, g.edges[he.Edge].P)
	}
	return buf
}

// Version returns the mutation counter: it changes on every AddEdge and
// SetProb, so (graph pointer, version) identifies one immutable snapshot
// of the edge set and probabilities. Caches of derived data key on it.
func (g *Graph) Version() uint64 { return g.version }

// Clone returns a deep copy of g. The clone starts with a fresh derived
// state (no cached sampler) and its own version counter.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		n:     g.n,
		edges: g.Edges(),
		uv:    append([]uint64(nil), g.uv...),
		adj:   make([][]halfEdge, g.n),
		index: append([]int32(nil), g.index...),
	}
	for v := range g.adj {
		c.adj[v] = append([]halfEdge(nil), g.adj[v]...)
	}
	c.version = g.version
	return c
}

// Equal reports whether g and h have identical vertex counts and identical
// edge sets with equal probabilities.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || len(g.edges) != len(h.edges) {
		return false
	}
	for _, e := range g.edges {
		j := h.EdgeIndex(e.U, e.V)
		if j < 0 || h.edges[j].P != e.P {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer with a short summary.
func (g *Graph) String() string {
	return fmt.Sprintf("uncertain.Graph{n=%d m=%d meanP=%.3f}", g.n, len(g.edges), g.MeanProb())
}
