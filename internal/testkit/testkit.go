// Package testkit is the repo's verification subsystem: the machinery
// that checks the statistical claims of the pipeline rather than its
// determinism. Apart from the certificate forward bench/ still calls,
// only tests import it: scripts/check.sh keeps it, and internal/exact,
// out of the facade, the commands and the examples. Pinned seeds prove
// that an estimator reproduces itself; they prove nothing about whether
// it estimates the right quantity. The oracle hierarchy here does:
//
//   - exact oracles — exhaustive possible-world enumeration
//     (internal/exact) gives ground truth on small graphs, including the
//     exact variance of every sampled statistic, from which confidence
//     tolerances follow instead of hand-tuned epsilons;
//   - differential oracles — two independently coded Monte Carlo
//     estimators (the production bitset engine in internal/reliability and
//     the deliberately naive BFS engine in this package) must agree with
//     the exact values within Z standard errors;
//   - statistical assertions — chi-square and Kolmogorov–Smirnov
//     goodness-of-fit tests validate samplers whose outputs are
//     distributions, with a fixed-seed retry policy that keeps the
//     expected false-failure rate below 1e-6;
//   - certificate checking — internal/certify's independent
//     re-derivation of the (k, ε)-obfuscation guarantee (Definition 3)
//     must certify every method's published graph;
//   - metamorphic checks (CheckAll) — invariances the system must satisfy
//     whatever the inputs: vertex-relabel invariance, Δ monotonicity in
//     σ, and seed/worker-count independence of committed estimates.
//
// Everything in this package is deterministic under fixed seeds: no
// time.Now(), no global rand. See DESIGN.md §10 for the strategy.
package testkit

import (
	"chameleon/internal/uncertain"
)

// CorpusGraph is one entry of the deterministic seed corpus: a small
// graph with known structure, small enough for exhaustive possible-world
// enumeration, plus capability flags that say which oracles apply.
type CorpusGraph struct {
	// Name identifies the entry in test output.
	Name string
	// G is the graph itself. Corpus graphs are rebuilt on every call, so
	// mutating one never leaks between tests.
	G *uncertain.Graph
	// InteriorProbs is true when every edge probability lies strictly in
	// (0, 1); the ERR differential oracle requires it (edges pinned at 0
	// or 1 take the production estimator's conditional fallback path,
	// which has its own budget and is exercised separately).
	InteriorProbs bool
}

// Corpus returns the deterministic seed corpus used by the differential
// oracles. Every graph has at most 12 edges (4096 worlds), so exact
// enumeration of all pair reliabilities, connected-pair moments and
// conditional edge statistics stays cheap. The corpus spans the
// structural regimes the estimators must handle: paths, cycles, stars,
// cliques, bridges, disconnected pieces, certain and near-certain edges,
// and near-impossible edges.
func Corpus() []CorpusGraph {
	build := func(name string, n int, interior bool, edges ...uncertain.Edge) CorpusGraph {
		g := uncertain.New(n)
		for _, e := range edges {
			g.MustAddEdge(e.U, e.V, e.P)
		}
		return CorpusGraph{Name: name, G: g, InteriorProbs: interior}
	}
	e := func(u, v uncertain.NodeID, p float64) uncertain.Edge {
		return uncertain.Edge{U: u, V: v, P: p}
	}
	return []CorpusGraph{
		build("path4", 4, true,
			e(0, 1, 0.5), e(1, 2, 0.9), e(2, 3, 0.3)),
		build("cycle5", 5, true,
			e(0, 1, 0.7), e(1, 2, 0.4), e(2, 3, 0.6), e(3, 4, 0.55), e(0, 4, 0.25)),
		build("star6", 6, true,
			e(0, 1, 0.8), e(0, 2, 0.35), e(0, 3, 0.5), e(0, 4, 0.65), e(0, 5, 0.2)),
		build("k4", 4, true,
			e(0, 1, 0.3), e(0, 2, 0.5), e(0, 3, 0.7), e(1, 2, 0.45), e(1, 3, 0.6), e(2, 3, 0.35)),
		build("bridge", 7, true,
			// Two triangles joined by a single bridge edge: the bridge
			// carries nearly all reliability relevance.
			e(0, 1, 0.8), e(1, 2, 0.75), e(0, 2, 0.7),
			e(3, 4, 0.8), e(4, 5, 0.7), e(3, 5, 0.85),
			e(2, 3, 0.5), e(5, 6, 0.4)),
		build("disconnected", 6, true,
			e(0, 1, 0.6), e(1, 2, 0.5), e(3, 4, 0.7), e(4, 5, 0.45)),
		build("certain", 5, false,
			// Mixed certain/impossible edges exercise the no-draw sampler
			// paths: p=1 always present, p=0 never.
			e(0, 1, 1), e(1, 2, 1), e(2, 3, 0), e(3, 4, 0.5), e(0, 4, 1)),
		build("extreme", 5, true,
			// Probabilities at the edge of the representable range stress
			// threshold rounding in the bitset sampler.
			e(0, 1, 0.999), e(1, 2, 0.001), e(2, 3, 0.9999), e(3, 4, 1e-6), e(0, 3, 0.5)),
		build("twoblocks", 8, true,
			e(0, 1, 0.7), e(1, 2, 0.65), e(0, 2, 0.75),
			e(3, 4, 0.6), e(4, 5, 0.7), e(3, 5, 0.65),
			e(2, 3, 0.3), e(5, 6, 0.5), e(6, 7, 0.55), e(0, 7, 0.15)),
	}
}

// SamplingCorpus returns graphs for distribution-level sampler tests.
// They are too large for exact enumeration and add populous classes of
// edges sharing one low probability, where a correlated draw stream would
// show up in the pairwise-independence tests.
func SamplingCorpus() []CorpusGraph {
	out := Corpus()

	// A 40-edge graph holding two low-probability classes (20 edges at
	// p=0.05, 16 at p=0.2), a high-probability remainder, and certain edges.
	g := uncertain.New(30)
	id := 0
	add := func(p float64) {
		// Lay edges on a ring with growing chord lengths so no duplicates
		// appear and the graph stays simple.
		u := uncertain.NodeID(id % 30)
		v := uncertain.NodeID((id + 1 + id/30) % 30)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, p)
		}
		id++
	}
	for i := 0; i < 20; i++ {
		add(0.05)
	}
	for i := 0; i < 16; i++ {
		add(0.2)
	}
	for i := 0; i < 6; i++ {
		add(0.7)
	}
	add(1)
	add(0)
	out = append(out, CorpusGraph{Name: "skipclasses", G: g})
	return out
}
