package testkit

import (
	"fmt"
	"math"

	"chameleon/internal/reliability"
	"chameleon/internal/uncertain"
)

// CSROracle verifies the packed CSR adjacency view is estimate-transparent:
// every quantity computed on uncertain.NewCSR(g) must be BIT-IDENTICAL to
// the same computation on the slice-backed g — same sampled worlds, same
// component labels, same floats — not merely statistically close. The
// order-preserving CSR constructor makes the world streams replay exactly,
// so any drift here is a representation bug, never sampling noise.
//
// The check spans the quantities the engines serve (connected pairs, pair
// reliability, the full label matrix, discrepancy, edge relevance) across
// every sampling mode, plus the derived statistics the privacy objectives
// consume. It returns one error per violated assertion; an empty slice
// means the two representations are interchangeable on this graph.
func CSROracle(cg CorpusGraph, samples int, seed uint64) []error {
	g := cg.G
	c := uncertain.NewCSR(g)
	var errs []error
	fail := func(what string, got, want float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			errs = append(errs, fmt.Errorf("%s: %s: CSR %v != graph %v", cg.Name, what, got, want))
		}
	}

	// Derived statistics: one scalar each, bitwise equal.
	fail("MeanProb", c.MeanProb(), g.MeanProb())
	fail("ExpectedNumEdges", c.ExpectedNumEdges(), g.ExpectedNumEdges())
	fail("ExpectedAvgDegree", c.ExpectedAvgDegree(), g.ExpectedAvgDegree())
	fail("DegreeStdDev", c.DegreeStdDev(), g.DegreeStdDev())
	if c.MaxStructuralDegree() != g.MaxStructuralDegree() {
		errs = append(errs, fmt.Errorf("%s: MaxStructuralDegree: CSR %d != graph %d",
			cg.Name, c.MaxStructuralDegree(), g.MaxStructuralDegree()))
	}
	gd, cd := g.ExpectedDegrees(), c.ExpectedDegrees()
	for v := range gd {
		fail(fmt.Sprintf("ExpectedDegrees[%d]", v), cd[v], gd[v])
	}

	// Estimates across every sampling mode.
	for _, mode := range []uncertain.SamplingMode{
		uncertain.SampleIndependent, uncertain.SampleAntithetic,
		uncertain.SampleStratified, uncertain.SampleCoupled,
	} {
		eg := reliability.Estimator{Samples: samples, Seed: seed, Mode: mode}
		fail("mode="+mode.String()+" E[cc]", eg.ExpectedConnectedPairs(c), eg.ExpectedConnectedPairs(g))
	}

	est := reliability.Estimator{Samples: samples, Seed: seed}
	n := g.NumNodes()
	if n >= 2 {
		fail("PairReliability(0,last)",
			est.PairReliability(c, 0, uncertain.NodeID(n-1)),
			est.PairReliability(g, 0, uncertain.NodeID(n-1)))
		vg := est.ReliabilityVector(g, 0)
		vc := est.ReliabilityVector(c, 0)
		for v := range vg {
			fail(fmt.Sprintf("ReliabilityVector[%d]", v), vc[v], vg[v])
		}
	}

	// Full label matrix: the strongest form of the claim — every vertex's
	// component representative in every sampled world matches.
	lg := est.SampleLabels(g)
	lc := est.SampleLabels(c)
	for s := range lg {
		for v := range lg[s] {
			if lg[s][v] != lc[s][v] {
				errs = append(errs, fmt.Errorf("%s: label[world %d][vertex %d]: CSR %d != graph %d",
					cg.Name, s, v, lc[s][v], lg[s][v]))
			}
		}
	}

	// Discrepancy with mixed representations: the sibling stays
	// slice-backed while g swaps in its view, exercising the two-graph
	// paths with heterogeneous View implementations.
	h := PerturbedSibling(g)
	dg, errG := est.Discrepancy(g, h)
	dc, errC := est.Discrepancy(c, h)
	if (errG == nil) != (errC == nil) {
		errs = append(errs, fmt.Errorf("%s: Discrepancy errors diverge: graph %v, CSR %v", cg.Name, errG, errC))
	} else if errG == nil {
		fail("Discrepancy vs sibling", dc, dg)
	}

	rg := est.EdgeRelevance(g)
	rc := est.EdgeRelevance(c)
	for i := range rg {
		fail(fmt.Sprintf("EdgeRelevance[%d]", i), rc[i], rg[i])
	}
	return errs
}
