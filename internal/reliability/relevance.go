package reliability

import (
	"math"
	"math/bits"
	"time"

	"chameleon/internal/uncertain"
	"chameleon/internal/unionfind"
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
// or 1, or extreme probabilities at small N) have no worlds on one side.
// That side is estimated by conditional sampling with the edge pinned to
// it, over max(N/4, 32) auxiliary worlds drawn once for all such edges
// (pinnedMeans): one extra pass, plus an exact integer component delta per
// such edge and world. The err.fallback_edges gauge counts these edges,
// next to err.worlds, the effective N.
func (e Estimator) EdgeRelevance(g *uncertain.Graph) []float64 {
	defer e.timeOp(opEdgeRelevance, time.Now())
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
	var pins []pin
	for i, s := range present {
		if s.n == 0 || int(s.n) == n {
			ed := g.Edge(i)
			pins = append(pins, pin{edge: i, u: int(ed.U), v: int(ed.V), present: s.n == 0})
		}
	}
	var pinned []float64
	if len(pins) > 0 {
		pinned = e.pinnedMeans(g, pins)
	}
	if e.cancelled() {
		// The sums cover a truncated or partly subtracted sample set.
		// Return zeros; the caller observes Ctx.Err() and discards the
		// result.
		return make([]float64, m)
	}
	e.recordQuality(opEdgeRelevance, ccStat.Welford)

	// Per-edge standard error of the ERR estimate, from the pooled cc
	// variance: Var(ERR^e) ~ Var(cc) * (1/n_e + 1/n_ne) under the grouped
	// two-sample difference of means. Aggregated to mean/max gauges — the
	// estimator-quality signal the σ-search precompute is judged by.
	varCC := ccStat.Variance()
	var seSum, seMax float64
	seEdges := 0

	err := make([]float64, m)
	k := 0
	for i, s := range present {
		ne := int(s.n)
		ccNE := ccStat.sum - s.cc
		var meanE, meanNE float64
		switch {
		case ne == 0:
			meanNE = meanOf(ccNE, n)
			meanE = pinned[k]
			k++
		case ne == n:
			meanE = meanOf(s.cc, n)
			meanNE = pinned[k]
			k++
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
		reg.Gauge("err.fallback_edges").Set(float64(len(pins)))
		if seEdges > 0 {
			reg.Gauge("err.stderr.mean").Set(seSum / float64(seEdges))
			reg.Gauge("err.stderr.max").Set(seMax)
		}
	}
	return err
}

// pin is an edge whose presence bit never varied in EdgeRelevance's main
// pass, with endpoints u, v and the presence its missing side fixes.
type pin struct {
	edge, u, v int
	present    bool
}

// conditionalStart is the first index of the auxiliary worlds pinnedMeans
// draws. The offset is deliberate, not an accident of history: every
// pinned edge reads the SAME auxiliary worlds, past the main sample
// indices, i.e. common random numbers across edges, so the conditional
// means differ only through the pinned edge and compare without
// independent sampling noise. It is 15,625 whole chunks, as run needs its
// start to be a multiple of the chunk size.
const conditionalStart = 1_000_000

// pinnedMeans estimates E[cc] with each pin's edge forced to its presence,
// over auxiliary worlds conditionalStart+i, i < max(N/4, 32), with the
// fixed Samples as N even in adaptive mode. The worlds are drawn once, on
// the scheduler, for all pins together: each world's components are
// computed once, and each pin adds the world's cc plus the exact change
// pinning its edge makes (pinnedCC). The per-pin sums are integers, so the
// means are those of drawing every pin's worlds separately, in any order
// and at any worker count.
func (e Estimator) pinnedMeans(g *uncertain.Graph, pins []pin) []float64 {
	type pinSums struct {
		sums    []int64
		bridges uncertain.Bridges
	}
	n := max(e.samples()/4, 32)
	perWorker := make([]*pinSums, e.workers())
	fixed := e
	fixed.TargetRSE = 0
	r := fixed.newRun(g, nil, func(_ int, sc *scratch) int64 {
		d, cc := sc.componentsPairs()
		ps := perWorker[sc.worker]
		if ps == nil {
			ps = &pinSums{sums: make([]int64, len(pins))}
			perWorker[sc.worker] = ps
		}
		ps.bridges.Reset()
		for k, p := range pins {
			ps.sums[k] += pinnedCC(&sc.world, d, cc, &ps.bridges, p)
		}
		return cc
	})
	r.start, r.limit = conditionalStart, conditionalStart+n
	fixed.run(&r)
	means := make([]float64, len(pins))
	for k := range pins {
		var sum int64
		for _, ps := range perWorker {
			if ps != nil {
				sum += ps.sums[k]
			}
		}
		means[k] = meanOf(sum, n)
	}
	return means
}

// pinnedCC is the connected-pair count of world w with p's edge pinned to
// p.present, given the world's components d and pair count cc:
//
//   - the edge already has the pinned presence: cc;
//   - pinned present, absent, endpoints in components of sizes a ≠ b
//     apart: cc + a·b, and cc when they share a component;
//   - pinned absent, present, a bridge splitting s nodes off a component
//     of c: cc − s·(c − s), and cc when the edge lies on a cycle.
//
// bridges must have been Reset since w was drawn; its low-link pass runs
// only when the last case comes up.
func pinnedCC(w *uncertain.World, d *unionfind.DSU, cc int64, bridges *uncertain.Bridges, p pin) int64 {
	switch {
	case w.Present(p.edge) == p.present:
		return cc
	case p.present:
		if d.Connected(p.u, p.v) {
			return cc
		}
		return cc + int64(d.SetSize(p.u))*int64(d.SetSize(p.v))
	default:
		s := int64(bridges.Split(w, p.edge))
		return cc - s*(int64(d.SetSize(p.u))-s)
	}
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
