package reliability

import (
	"math"
	"math/bits"
	"sync"
	"time"

	"chameleon/internal/uncertain"
)

// relArena holds EdgeRelevance's per-call sampling state: every world's
// packed presence bitset (N rows of `words` uint64s) and connected-pair
// count. Pooled across calls so the σ-search, which evaluates hundreds of
// candidates, reuses one allocation.
type relArena struct {
	masks []uint64
	cc    []float64
}

var relArenaPool = sync.Pool{New: func() any { return new(relArena) }}

// grow resizes the arena for n worlds of `words` mask words each, reusing
// capacity. Rows are fully overwritten by the sampling pass, so no zeroing.
func (ar *relArena) grow(n, words int) {
	if need := n * words; cap(ar.masks) < need {
		ar.masks = make([]uint64, need)
	} else {
		ar.masks = ar.masks[:need]
	}
	if cap(ar.cc) < n {
		ar.cc = make([]float64, n)
	} else {
		ar.cc = ar.cc[:n]
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
// The grouping pass is word-parallel: per world it iterates the set bits
// of the packed presence mask (and of its complement) instead of testing
// one bool per edge. Worlds are accumulated in ascending sample order per
// edge, so the floating-point sums — and hence the estimates — are
// bit-identical to a sequential per-edge scan.
//
// Edges whose presence bit never varies across the samples (probability 0
// or 1, or extreme probabilities at small N) fall back to explicit
// conditional sampling for the missing side.
func (e Estimator) EdgeRelevance(g uncertain.View) []float64 {
	defer e.timeOp("EdgeRelevance", time.Now())
	m := g.NumEdges()
	words := (m + 63) / 64

	ar := relArenaPool.Get().(*relArena)
	ar.grow(e.budget(), words)
	ccStat := e.forEachSample(g, nil, func(i int, sc *scratch) float64 {
		_, pairs := sc.componentsPairs()
		ar.cc[i] = float64(pairs)
		copy(ar.masks[i*words:(i+1)*words], sc.world.Bits())
		return float64(pairs)
	})
	if e.cancelled() {
		// The arena rows for undrawn samples are uninitialized: scanning
		// them could index phantom edges past m. Return zeros; the caller
		// observes Ctx.Err() and discards the result.
		relArenaPool.Put(ar)
		return make([]float64, m)
	}
	e.recordQuality("EdgeRelevance", ccStat)
	// Effective sample count: the stopping-rule prefix in adaptive mode
	// (always contiguous, so rows [0,n) of the arena are exactly the counted
	// worlds), the fixed budget otherwise.
	n := e.effSamples(ccStat)

	// tailMask zeroes the complement's phantom bits past edge m-1.
	tailMask := ^uint64(0)
	if r := m & 63; r != 0 {
		tailMask = 1<<uint(r) - 1
	}

	ccPresent := make([]float64, m)
	ccAbsent := make([]float64, m)
	nPresent := make([]int, m)
	for s := 0; s < n; s++ {
		cc := ar.cc[s]
		row := ar.masks[s*words : (s+1)*words]
		for wi, word := range row {
			base := wi << 6
			inv := ^word
			if wi == words-1 {
				inv &= tailMask
			}
			for word != 0 {
				j := base + bits.TrailingZeros64(word)
				word &= word - 1
				ccPresent[j] += cc
				nPresent[j]++
			}
			for inv != 0 {
				j := base + bits.TrailingZeros64(inv)
				inv &= inv - 1
				ccAbsent[j] += cc
			}
		}
	}
	relArenaPool.Put(ar)

	// Per-edge standard error of the ERR estimate, from the pooled cc
	// variance: Var(ERR^e) ~ Var(cc) * (1/n_e + 1/n_ne) under the grouped
	// two-sample difference of means. Aggregated to mean/max gauges — the
	// estimator-quality signal the σ-search precompute is judged by.
	varCC := ccStat.Variance()
	var seSum, seMax float64
	seEdges := 0

	err := make([]float64, m)
	for i := 0; i < m; i++ {
		var meanE, meanNE float64
		switch {
		case nPresent[i] == 0:
			meanNE = ccAbsent[i] / float64(n)
			meanE = e.conditionalCC(g, i, true)
		case nPresent[i] == n:
			meanE = ccPresent[i] / float64(n)
			meanNE = e.conditionalCC(g, i, false)
		default:
			meanE = ccPresent[i] / float64(nPresent[i])
			meanNE = ccAbsent[i] / float64(n-nPresent[i])
			se := math.Sqrt(varCC * (1/float64(nPresent[i]) + 1/float64(n-nPresent[i])))
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
	if seEdges > 0 && e.Obs != nil {
		reg := e.Obs.Registry()
		reg.Gauge("err.stderr.mean").Set(seSum / float64(seEdges))
		reg.Gauge("err.stderr.max").Set(seMax)
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
func (e Estimator) conditionalCC(g uncertain.View, edge int, present bool) float64 {
	n := e.samples() / 4
	if n < 32 {
		n = 32
	}
	sampler := g.Sampler()
	draw := e.drawFn()
	sc := scratchPool.Get().(*scratch)
	var total float64
	for i := 0; i < n; i++ {
		if i%sampleChunk == 0 && e.cancelled() {
			break // partial mean: caller observes Ctx.Err() and discards
		}
		draw(e.Seed, sampler, sc, 1_000_000+i)
		sc.world.SetPresence(edge, present)
		_, pairs := sc.componentsPairs()
		total += float64(pairs)
	}
	scratchPool.Put(sc)
	return total / float64(n)
}

// EdgeRelevanceNaive is the baseline ERR estimator of Lemma 2: for every
// edge it runs an independent conditional Monte Carlo estimation with the
// edge forced present and forced absent. It exists for the cost-comparison
// ablation bench; EdgeRelevance gives the same estimates at 1/|E| of the
// cost.
func (e Estimator) EdgeRelevanceNaive(g uncertain.View) []float64 {
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
func VertexRelevance(g uncertain.View, edgeRelevance []float64) []float64 {
	out := make([]float64, g.NumNodes())
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		w := e.P * edgeRelevance[i]
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
