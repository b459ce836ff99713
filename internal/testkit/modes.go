package testkit

import (
	"fmt"

	"chameleon/internal/exact"
	"chameleon/internal/reliability"
	"chameleon/internal/uncertain"
)

// ModeOracle cross-checks one variance-reduction sampling mode of the
// production Monte Carlo engine against exact enumeration on a corpus
// graph: pair reliabilities from the labeled worlds, expected connected
// pairs, and Delta-discrepancy against the perturbed sibling must all land
// within the Z-sigma tolerances derived from the exact moments. The
// tolerances assume independent worlds, which makes them conservative for
// every mode here — antithetic pairing and stratified lattices only lower
// the estimator variance, and coupled draws are independent across worlds.
//
// A final adaptive arm runs the same estimator with an unreachable RSE
// target and MaxSamples equal to the fixed budget: sequential stopping
// must then consume exactly the full budget and reproduce the fixed-N
// estimate bit-for-bit, proving the adaptive loop changes when sampling
// stops and never what is sampled.
func ModeOracle(cg CorpusGraph, samples int, seed uint64, mode uncertain.SamplingMode) []error {
	g := cg.G
	var errs []error
	fail := func(err error) {
		if err != nil {
			errs = append(errs, fmt.Errorf("%s/%s: %w", cg.Name, mode, err))
		}
	}

	mo, err := ExactMoments(g)
	if err != nil {
		return []error{fmt.Errorf("%s: exact moments: %w", cg.Name, err)}
	}

	est := reliability.Estimator{Samples: samples, Seed: seed, Mode: mode}

	// Pair reliability from the per-world component labels.
	rows := est.SampleLabels(g)
	n := g.NumNodes()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			want := mo.PairR[u][v]
			got := pairFromLabels(rows, uncertain.NodeID(u), uncertain.NodeID(v), len(rows))
			fail(CheckClose(fmt.Sprintf("R(%d,%d)", u, v), got, want,
				BernoulliTol(want, samples)))
		}
	}

	// Expected connected pairs.
	gotCC := est.ExpectedConnectedPairs(g)
	fail(CheckClose("E[cc]", gotCC, mo.CCMean, MeanTol(mo.CCVar, samples)))

	// Delta-discrepancy against the deterministic perturbed sibling. Under
	// the coupled mode the two graphs share every uniform, so the estimate
	// concentrates far inside this independent-worlds tolerance.
	h := PerturbedSibling(g)
	wantDelta, err := exact.Discrepancy(g, h)
	if err != nil {
		fail(fmt.Errorf("exact discrepancy: %w", err))
		return errs
	}
	rh, err := exact.AllPairReliability(h)
	if err != nil {
		fail(fmt.Errorf("exact pair reliability (sibling): %w", err))
		return errs
	}
	gotDelta, err := est.Discrepancy(g, h)
	if err != nil {
		fail(err)
	} else {
		fail(CheckClose("Delta", gotDelta, wantDelta, DiscrepancyTol(mo.PairR, rh, samples)))
	}

	// Adaptive-capped arm: an unreachable target forces the sequential
	// loop to the cap, which equals the fixed budget, so the estimate must
	// match the fixed-N run exactly (same worlds, same reduction order).
	capped := est
	capped.TargetRSE = 1e-9
	capped.MaxSamples = samples
	fail(CheckClose("adaptive-capped E[cc]", capped.ExpectedConnectedPairs(g), gotCC, 1e-12))
	return errs
}
