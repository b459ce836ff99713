// Package repan holds the representative-extraction half of the paper's
// benchmark solution Rep-An (Section IV): it detaches the uncertainty by
// extracting a single deterministic representative instance of the
// uncertain graph, following the representative-extraction line of work of
// Parchas et al. [29]. The other half, anonymizing that representative
// with the conventional uncertainty-injection obfuscator of Boldi et al.
// [7], is core's Boldi variant; core.RepAn runs the two in sequence.
//
// The two phases are deliberately oblivious to each other — that is the
// point of the baseline: the extraction step alone already distorts the
// reliability structure, and the obfuscation step optimizes a
// deterministic-graph objective.
package repan

import "chameleon/internal/uncertain"

// Representative extracts a deterministic instance of g that approximates
// its expected vertex degrees: it starts from the most-probable world and
// greedily flips edge presences while the flips reduce the total
// expected-degree discrepancy sum_v |deg(v) - E[deg(v)]| (Average-Degree
// Rewiring in the spirit of [29]). The result is returned as an uncertain
// graph whose probabilities are all 0 or 1 restricted to the original edge
// set (absent edges are dropped).
func Representative(g *uncertain.Graph) *uncertain.Graph {
	n := g.NumNodes()
	m := g.NumEdges()
	expDeg := g.ExpectedDegrees()

	present := make([]bool, m)
	deg := make([]float64, n)
	for i := 0; i < m; i++ {
		e := g.Edge(i)
		if e.P >= 0.5 {
			present[i] = true
			deg[e.U]++
			deg[e.V]++
		}
	}

	abs := func(x float64) float64 {
		if x < 0 {
			return -x
		}
		return x
	}

	// Greedy local search: flip any edge whose flip strictly reduces the
	// degree discrepancy at its endpoints. A handful of passes suffices to
	// reach a local optimum on the graphs we target.
	const maxPasses = 8
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for i := 0; i < m; i++ {
			e := g.Edge(i)
			var delta float64 // change in degree if flipped to present
			if present[i] {
				delta = -1
			} else {
				delta = 1
			}
			before := abs(deg[e.U]-expDeg[e.U]) + abs(deg[e.V]-expDeg[e.V])
			after := abs(deg[e.U]+delta-expDeg[e.U]) + abs(deg[e.V]+delta-expDeg[e.V])
			if after < before {
				present[i] = !present[i]
				deg[e.U] += delta
				deg[e.V] += delta
				improved = true
			}
		}
		if !improved {
			break
		}
	}

	rep := uncertain.New(n)
	for i := 0; i < m; i++ {
		if present[i] {
			e := g.Edge(i)
			rep.MustAddEdge(e.U, e.V, 1)
		}
	}
	return rep
}

// DegreeDiscrepancy returns sum_v |deg_rep(v) - E[deg_g(v)]|, the objective
// the representative extraction minimizes.
func DegreeDiscrepancy(g, rep *uncertain.Graph) float64 {
	exp := g.ExpectedDegrees()
	var total float64
	for v := 0; v < g.NumNodes(); v++ {
		d := float64(rep.Degree(uncertain.NodeID(v))) - exp[v]
		if d < 0 {
			d = -d
		}
		total += d
	}
	return total
}
