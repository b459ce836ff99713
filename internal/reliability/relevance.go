package reliability

import (
	"math"
	"math/bits"
	"time"

	"chameleon/internal/uncertain"
)

// edgeSum is one edge's share of a worker's grouping in EdgeRelevance:
// the summed connected-pair counts of the worlds that contain the edge,
// and how many worlds those are.
type edgeSum struct{ cc, n int64 }

// addWorld adds one world to the sums of the edges it contains: cc to
// each edge's pair total and one to its world count. Passing -cc and -1
// takes the world back out.
func addWorld(sums []edgeSum, present uncertain.Bitset, cc, one int64) {
	for wi, word := range present {
		base := wi << 6
		for word != 0 {
			j := base + bits.TrailingZeros64(word)
			word &= word - 1
			sums[j].cc += cc
			sums[j].n += one
		}
	}
}

// EdgeRelevance estimates the edge reliability relevance ERR^e for every
// edge (Definition 5, aggregated form) using the sample-reuse estimator of
// Algorithm 2: the N sampled worlds are drawn once, each world's
// connected-pair count cc is computed once, and for every edge the worlds
// are grouped by the edge's presence bit:
//
//	ERR^e  =  E[cc | e present] - E[cc | e absent]
//	       ~= CC_e / n_e        - CC_ne / n_ne
//
// where n_e worlds contain e and n_ne do not. Total cost is
// O(N * alpha(|V|) * |E|) instead of the naive O(|E| * N * alpha(|V|) * |E|)
// (Lemma 3 vs Lemma 2).
//
// The grouping runs on the workers, inside the sampling pass: each worker
// adds every world it draws to its own per-edge sums, walking the set bits
// of the world's packed presence mask, so memory is O(workers * |E|). The
// absent side needs no pass of its own: CC_ne is the run's total cc minus
// CC_e, and n_ne is N - n_e. Every sum is of integers, so it is exact in
// any order, and the estimates are bit-identical to a sequential per-edge
// scan in ascending float64 arithmetic (see meanOf). An adaptive round
// may draw chunks past the stopping point; those worlds are drawn again
// and subtracted, on the same scheduler, so the sums cover exactly the
// counted prefix.
//
// Edges whose presence bit never varies across the samples (probability 0
// or 1, or extreme probabilities at small N) fall back to explicit
// conditional sampling for the missing side. The err.fallback_edges gauge
// counts them, next to err.worlds, the effective N.
func (e Estimator) EdgeRelevance(g *uncertain.Graph) []float64 {
	defer e.timeOp("EdgeRelevance", time.Now())
	m := g.NumEdges()
	perWorker := make([][]edgeSum, e.workers())
	group := func(sign int64) func(int, *scratch) int64 {
		return func(_ int, sc *scratch) int64 {
			_, cc := sc.componentsPairs()
			sums := perWorker[sc.worker]
			if sums == nil {
				sums = make([]edgeSum, m)
				perWorker[sc.worker] = sums
			}
			addWorld(sums, sc.world.Bits(), sign*cc, sign)
			return cc
		}
	}
	r := e.newRun(g, nil, group(1))
	ccStat := e.run(&r)
	if n := int(ccStat.Count()); n < r.drawn && !e.cancelled() {
		// The last adaptive round drew chunks past the stopping point:
		// draw those worlds again and take them back out of the sums.
		fixed := e
		fixed.TargetRSE = 0
		r.fn, r.start, r.limit = group(-1), n, r.drawn
		fixed.run(&r)
	}
	if e.cancelled() {
		// The sums cover a truncated or partly subtracted sample set.
		// Return zeros; the caller observes Ctx.Err() and discards the
		// result.
		return make([]float64, m)
	}
	e.recordQuality("EdgeRelevance", ccStat.Welford)
	n := e.effSamples(ccStat.Welford)
	var present []edgeSum
	for _, sums := range perWorker {
		if present == nil {
			present = sums
			continue
		}
		for j, s := range sums {
			present[j].cc += s.cc
			present[j].n += s.n
		}
	}

	// Per-edge standard error of the ERR estimate, from the pooled cc
	// variance: Var(ERR^e) ~ Var(cc) * (1/n_e + 1/n_ne) under the grouped
	// two-sample difference of means. Aggregated to mean/max gauges — the
	// estimator-quality signal the σ-search precompute is judged by.
	varCC := ccStat.Variance()
	var seSum, seMax float64
	seEdges, fallback := 0, 0

	err := make([]float64, m)
	for i, s := range present {
		ne := int(s.n)
		ccNE := ccStat.sum - s.cc
		var meanE, meanNE float64
		switch {
		case ne == 0:
			meanNE = meanOf(ccNE, n)
			meanE = e.conditionalCC(g, i, true)
			fallback++
		case ne == n:
			meanE = meanOf(s.cc, n)
			meanNE = e.conditionalCC(g, i, false)
			fallback++
		default:
			meanE = meanOf(s.cc, ne)
			meanNE = meanOf(ccNE, n-ne)
			se := math.Sqrt(varCC * (1/float64(ne) + 1/float64(n-ne)))
			seSum += se
			if se > seMax {
				seMax = se
			}
			seEdges++
		}
		v := meanE - meanNE
		if v < 0 {
			// The true ERR is non-negative (connectivity in G_e dominates
			// G_ne); clamp sampling noise.
			v = 0
		}
		err[i] = v
	}
	if e.Obs != nil {
		reg := e.Obs.Registry()
		reg.Gauge("err.worlds").Set(float64(n))
		reg.Gauge("err.fallback_edges").Set(float64(fallback))
		if seEdges > 0 {
			reg.Gauge("err.stderr.mean").Set(seSum / float64(seEdges))
			reg.Gauge("err.stderr.max").Set(seMax)
		}
	}
	return err
}

// conditionalCC estimates E[cc] with edge i forced to the given presence,
// using a reduced sample budget (this path only triggers for edges with
// probability 0 or 1). It samples into a pooled scratch and pins the edge
// bit in place instead of copying the mask.
//
// The 1_000_000+i seed offset is deliberate, not an accident of history:
// every edge's conditional estimate draws the SAME auxiliary world stream
// (offset past the main sample indices), i.e. common random numbers across
// edges, so the conditional means differ only through the pinned edge and
// compare without independent sampling noise.
func (e Estimator) conditionalCC(g *uncertain.Graph, edge int, present bool) float64 {
	n := e.samples() / 4
	if n < 32 {
		n = 32
	}
	sampler := g.Sampler()
	draw := e.drawFn()
	sc := scratchPool.Get().(*scratch)
	var total int64
	for i := 0; i < n; i++ {
		if i%sampleChunk == 0 && e.cancelled() {
			break // partial mean: caller observes Ctx.Err() and discards
		}
		draw(e.Seed, sampler, sc, 1_000_000+i)
		sc.world.SetPresence(edge, present)
		_, pairs := sc.componentsPairs()
		total += pairs
	}
	scratchPool.Put(sc)
	return meanOf(total, n)
}

// EdgeRelevanceNaive is the baseline ERR estimator of Lemma 2: for every
// edge it runs an independent conditional Monte Carlo estimation with the
// edge forced present and forced absent. It exists for the cost-comparison
// ablation bench; EdgeRelevance gives the same estimates at 1/|E| of the
// cost.
func (e Estimator) EdgeRelevanceNaive(g *uncertain.Graph) []float64 {
	m := g.NumEdges()
	n := e.samples()
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		if e.cancelled() {
			break // partial ranking: caller observes Ctx.Err() and discards
		}
		var ccE, ccNE float64
		for s := 0; s < n; s++ {
			rng := e.rngFor(i*n + s)
			w := g.SampleWorld(rng)
			mask := append([]bool(nil), w.PresenceMask()...)
			mask[i] = true
			ccE += float64(g.WorldFromMask(mask).ConnectedPairs())
			mask[i] = false
			ccNE += float64(g.WorldFromMask(mask).ConnectedPairs())
		}
		v := (ccE - ccNE) / float64(n)
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}

// VertexRelevance aggregates edge relevance to the vertex level:
// VRR^u = sum over edges e incident to u of p(e) * ERR^e.
func VertexRelevance(g *uncertain.Graph, edgeRelevance []float64) []float64 {
	out := make([]float64, g.NumNodes())
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		// float64() rounds the product: no fused multiply-add on any GOARCH.
		w := float64(e.P * edgeRelevance[i])
		out[e.U] += w
		out[e.V] += w
	}
	return out
}

// NormalizeToUnit rescales xs into [0,1] by dividing by the maximum.
// An all-zero input is returned unchanged.
func NormalizeToUnit(xs []float64) []float64 {
	max := 0.0
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	out := make([]float64, len(xs))
	if max == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = x / max
	}
	return out
}
