package reliability

import (
	"fmt"
	"math/rand/v2"
	"time"

	"chameleon/internal/obs"
	"chameleon/internal/uncertain"
)

// pairAbsDiff returns |#connected(g) - #connected(h)| * nInv for one
// vertex pair, streaming the first m worlds of the two vertices'
// contiguous label rows. Counts are integers, so the result is independent
// of accumulation order and matches the world-major scan it replaced
// exactly (nInv is the precomputed reciprocal of m). m is the MINIMUM of
// the two labelings' counted worlds: adaptive labelings of different
// graphs may stop at different counts, and comparing index-aligned worlds
// is what keeps the coupled (common-random-numbers) modes paired.
func pairAbsDiff(lg, lh *labelSet, u, v, m int, nInv float64) float64 {
	gu, gv := lg.row(u)[:m], lg.row(v)[:m]
	hu, hv := lh.row(u)[:m], lh.row(v)[:m]
	var cg, ch int
	for s := range gu {
		if gu[s] == gv[s] {
			cg++
		}
		if hu[s] == hv[s] {
			ch++
		}
	}
	d := float64(cg-ch) * nInv
	if d < 0 {
		d = -d
	}
	return d
}

// pairWorlds is the common world count two labelings are compared over:
// the minimum of their counted worlds (they differ only when adaptive
// stopping converged at different points for the two graphs), clamped to 1
// so a cancelled empty labeling — whose result is discarded anyway — never
// divides by zero.
func pairWorlds(lg, lh *labelSet) int {
	m := lg.samples
	if lh.samples < m {
		m = lh.samples
	}
	if m < 1 {
		m = 1
	}
	return m
}

// Discrepancy estimates the reliability discrepancy Delta (Definition 2)
// between the original graph g and the perturbed graph h over ALL vertex
// pairs: sum_{u<v} |R_uv(g) - R_uv(h)|.
//
// Labels are held vertex-major (one contiguous row of N world labels per
// vertex), so the O(|V|^2) pair loop streams two rows per graph instead of
// striding across N separate label vectors. With a Cache attached, g's
// labeling is computed once and shared across every candidate h.
//
// Cost is O(N * |V|^2) label comparisons; use SampledPairDiscrepancy for
// large graphs.
func (e Estimator) Discrepancy(g, h *uncertain.Graph) (float64, error) {
	defer e.timeOp(opDiscrepancy, time.Now())
	if g.NumNodes() != h.NumNodes() {
		return 0, fmt.Errorf("reliability: vertex count mismatch %d vs %d", g.NumNodes(), h.NumNodes())
	}
	lg := e.sampleLabelsT(g)
	lh := e.sampleLabelsT(h)
	n := g.NumNodes()
	m := pairWorlds(lg, lh)
	nInv := 1 / float64(m)
	var delta float64
	var w obs.Welford
	for u := 0; u < n; u++ {
		if u&63 == 0 && e.cancelled() {
			break // partial sum: caller observes Ctx.Err() and discards
		}
		for v := u + 1; v < n; v++ {
			d := pairAbsDiff(lg, lh, u, v, m, nInv)
			delta += d
			w.Add(d)
		}
	}
	// Per-pair values share the same N worlds and are correlated, so this
	// is a spread diagnostic, not Monte Carlo error: see recordPairSpread.
	e.recordPairSpread(opDiscrepancy, w)
	e.releaseLabels(lg)
	e.releaseLabels(lh)
	return delta, nil
}

// PairSample configures the pair-sampled discrepancy estimator.
type PairSample struct {
	Pairs int    // number of random vertex pairs (default 20000)
	Seed  uint64 // pair-sampling seed
}

// SampledPairDiscrepancy estimates the AVERAGE per-pair reliability
// discrepancy, E_{u,v}|R_uv(g) - R_uv(h)|, from a random sample of vertex
// pairs. Multiply by |V|(|V|-1)/2 for an estimate of the total Delta.
//
// This is the estimator used by the figure benchmarks: the paper reports
// the "average reliability discrepancy" (Figure 4) which is exactly this
// per-pair mean.
func (e Estimator) SampledPairDiscrepancy(g, h *uncertain.Graph, ps PairSample) (float64, error) {
	defer e.timeOp(opSampledPairDiscrepancy, time.Now())
	if g.NumNodes() != h.NumNodes() {
		return 0, fmt.Errorf("reliability: vertex count mismatch %d vs %d", g.NumNodes(), h.NumNodes())
	}
	n := g.NumNodes()
	if n < 2 {
		return 0, nil
	}
	pairs := ps.Pairs
	if pairs <= 0 {
		pairs = 20000
	}
	rng := rand.New(rand.NewPCG(ps.Seed, 0x6a09e667f3bcc909))
	us := make([]int, pairs)
	vs := make([]int, pairs)
	for i := 0; i < pairs; i++ {
		u := rng.IntN(n)
		v := rng.IntN(n - 1)
		if v >= u {
			v++
		}
		us[i], vs[i] = u, v
	}
	lg := e.sampleLabelsT(g)
	lh := e.sampleLabelsT(h)
	m := pairWorlds(lg, lh)
	nInv := 1 / float64(m)
	var total float64
	var w obs.Welford
	for i := 0; i < pairs; i++ {
		if i&1023 == 0 && e.cancelled() {
			break // partial sum: caller observes Ctx.Err() and discards
		}
		d := pairAbsDiff(lg, lh, us[i], vs[i], m, nInv)
		total += d
		w.Add(d)
	}
	// Pairs are drawn iid, so this stream's stderr bounds the PAIR-sampling
	// error of the mean conditional on the drawn worlds; it says nothing
	// about world-sampling convergence (all pairs reuse the same N worlds),
	// hence pairspread rather than quality: see recordPairSpread.
	e.recordPairSpread(opSampledPairDiscrepancy, w)
	e.releaseLabels(lg)
	e.releaseLabels(lh)
	return total / float64(pairs), nil
}

// DeltaExpectedConnectedPairs estimates E[cc(G)] - E[cc(H)] from PAIRED
// worlds: world i of both graphs is drawn at the same sample index (see
// forEachSample), the per-index difference feeds the tally, and the
// estimate is the mean of its exact sum. Under the coupled and stratified
// modes the two draws share one uniform per common edge — common random
// numbers — so the difference's variance collapses to the contribution of
// the edges whose probabilities actually differ; adaptive stopping then
// reaches a target RSE in a fraction of the samples the independent
// two-sample estimator needs. The achieved variance-reduction factor,
// (Var cc(G) + Var cc(H)) / Var(cc(G)-cc(H)), is published as the
// mc.adaptive.vr_factor gauge (≈1 for independent draws, ≫1 under CRN),
// from per-chunk moments of each graph's counts merged over the counted
// chunks.
func (e Estimator) DeltaExpectedConnectedPairs(g, h *uncertain.Graph) (float64, error) {
	defer e.timeOp(opDeltaExpectedPairs, time.Now())
	if g.NumNodes() != h.NumNodes() {
		return 0, fmt.Errorf("reliability: vertex count mismatch %d vs %d", g.NumNodes(), h.NumNodes())
	}
	chunks := (e.budget() + sampleChunk - 1) / sampleChunk
	cg := make([]obs.Welford, chunks)
	ch := make([]obs.Welford, chunks)
	stat := e.forEachSample(g, h, func(i int, sc *scratch) int64 {
		_, pg := sc.componentsPairs()
		_, ph := sc.pair.componentsPairs()
		cg[i/sampleChunk].Add(float64(pg))
		ch[i/sampleChunk].Add(float64(ph))
		return pg - ph
	})
	e.recordQuality(opDeltaExpectedPairs, stat.Welford)
	n := e.effSamples(stat.Welford)
	if vd := stat.Variance(); e.Obs != nil && vd > 0 {
		var sg, sh obs.Welford
		for c := 0; c*sampleChunk < n; c++ {
			sg.Merge(cg[c])
			sh.Merge(ch[c])
		}
		e.Obs.Registry().Gauge("mc.adaptive.vr_factor").Set((sg.Variance() + sh.Variance()) / vd)
	}
	return meanOf(stat.sum, n), nil
}

// RelativeDiscrepancy returns the sampled per-pair discrepancy normalized
// by the original graph's mean pair reliability, giving the "ratio of
// absolute difference against the original" reported in the evaluation.
// With a Cache attached, the normalization term reuses the worlds the
// discrepancy pass just sampled for g.
func (e Estimator) RelativeDiscrepancy(g, h *uncertain.Graph, ps PairSample) (float64, error) {
	avg, err := e.SampledPairDiscrepancy(g, h, ps)
	if err != nil {
		return 0, err
	}
	n := g.NumNodes()
	totalPairs := float64(n) * float64(n-1) / 2
	base := e.ExpectedConnectedPairs(g) / totalPairs
	if base == 0 {
		return 0, nil
	}
	return avg / base, nil
}
