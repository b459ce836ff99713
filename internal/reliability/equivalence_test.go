package reliability

import (
	"math/rand/v2"
	"testing"

	"chameleon/internal/uncertain"
)

// This file pins the optimized Monte Carlo kernels to reference
// implementations that mirror the pre-bitset estimators: one
// rand.Rand-driven g.SampleWorld per sample index, bool presence masks,
// per-edge boolean scans, and row-major label matrices. The determinism
// contract (one Float64-equivalent draw per edge with 0 < p < 1, in
// edge-index order, RNG state (Seed, streamFor(i)) for world i; float
// accumulation in ascending sample order) makes the optimized output not
// just statistically equal but BIT-IDENTICAL, and these tests assert
// exact float equality to catch any drift in that contract.

// referenceConditionalCC is one edge's conditional side as pinnedMeans
// estimates it: E[cc] with the edge pinned, over the shared auxiliary
// world stream at offset 1_000_000, recounted world by world.
func referenceConditionalCC(e Estimator, g *uncertain.Graph, edge int, present bool) float64 {
	n := e.samples() / 4
	if n < 32 {
		n = 32
	}
	var total float64
	for i := 0; i < n; i++ {
		w := g.SampleWorld(e.rngFor(1_000_000 + i))
		mask := w.PresenceMask()
		mask[edge] = present
		total += float64(g.WorldFromMask(mask).ConnectedPairs())
	}
	return total / float64(n)
}

// referenceEdgeRelevance mirrors the pre-bitset Algorithm 2 estimator:
// sample N worlds into bool masks, then scan one bool per (edge, world).
func referenceEdgeRelevance(e Estimator, g *uncertain.Graph) []float64 {
	n := e.samples()
	m := g.NumEdges()
	masks := make([][]bool, n)
	cc := make([]float64, n)
	for i := 0; i < n; i++ {
		w := g.SampleWorld(e.rngFor(i))
		masks[i] = w.PresenceMask()
		cc[i] = float64(w.ConnectedPairs())
	}
	out := make([]float64, m)
	for j := 0; j < m; j++ {
		var ccPresent, ccAbsent float64
		nPresent := 0
		for i := 0; i < n; i++ {
			if masks[i][j] {
				ccPresent += cc[i]
				nPresent++
			} else {
				ccAbsent += cc[i]
			}
		}
		var meanE, meanNE float64
		switch {
		case nPresent == 0:
			meanNE = ccAbsent / float64(n)
			meanE = referenceConditionalCC(e, g, j, true)
		case nPresent == n:
			meanE = ccPresent / float64(n)
			meanNE = referenceConditionalCC(e, g, j, false)
		default:
			meanE = ccPresent / float64(nPresent)
			meanNE = ccAbsent / float64(n-nPresent)
		}
		v := meanE - meanNE
		if v < 0 {
			v = 0
		}
		out[j] = v
	}
	return out
}

// referenceLabels samples the row-major label matrix world by world.
func referenceLabels(e Estimator, g *uncertain.Graph) [][]int32 {
	n := e.samples()
	labels := make([][]int32, n)
	for i := 0; i < n; i++ {
		labels[i] = g.SampleWorld(e.rngFor(i)).ComponentLabels()
	}
	return labels
}

// referenceDiscrepancy mirrors the pre-transpose full-pair scan.
func referenceDiscrepancy(e Estimator, g, h *uncertain.Graph) float64 {
	lg := referenceLabels(e, g)
	lh := referenceLabels(e, h)
	n := e.samples()
	nv := g.NumNodes()
	nInv := 1 / float64(n)
	var delta float64
	for u := 0; u < nv; u++ {
		for v := u + 1; v < nv; v++ {
			var cg, ch int
			for s := 0; s < n; s++ {
				if lg[s][u] == lg[s][v] {
					cg++
				}
				if lh[s][u] == lh[s][v] {
					ch++
				}
			}
			d := float64(cg-ch) * nInv
			if d < 0 {
				d = -d
			}
			delta += d
		}
	}
	return delta
}

// referenceSampledPairDiscrepancy mirrors the pair-sampled estimator,
// including its exact pair-generation RNG.
func referenceSampledPairDiscrepancy(e Estimator, g, h *uncertain.Graph, ps PairSample) float64 {
	n := g.NumNodes()
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
	lg := referenceLabels(e, g)
	lh := referenceLabels(e, h)
	nInv := 1 / float64(e.samples())
	var total float64
	for i := 0; i < pairs; i++ {
		var cg, ch int
		for s := range lg {
			if lg[s][us[i]] == lg[s][vs[i]] {
				cg++
			}
			if lh[s][us[i]] == lh[s][vs[i]] {
				ch++
			}
		}
		d := float64(cg-ch) * nInv
		if d < 0 {
			d = -d
		}
		total += d
	}
	return total / float64(pairs)
}

// referencePairReliability mirrors the per-world connectivity count.
func referencePairReliability(e Estimator, g *uncertain.Graph, u, v int) float64 {
	n := e.samples()
	var total float64
	for i := 0; i < n; i++ {
		if g.SampleWorld(e.rngFor(i)).Components().Connected(u, v) {
			total++
		}
	}
	return total / float64(n)
}

// degenerateGraph mixes certain (p=1), impossible (p=0) and probabilistic
// edges so the conditional-sampling fallbacks of EdgeRelevance trigger.
func degenerateGraph() *uncertain.Graph {
	g := uncertain.New(6)
	g.MustAddEdge(0, 1, 0)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 0.5)
	g.MustAddEdge(3, 4, 0.9)
	g.MustAddEdge(0, 4, 0.1)
	g.MustAddEdge(4, 5, 1)
	return g
}

// equivalenceGraphs is the test matrix: mixed probabilities, a denser
// random graph, and the degenerate 0/1 mix.
func equivalenceGraphs() map[string]*uncertain.Graph {
	return map[string]*uncertain.Graph{
		"small":      smallGraph(),
		"random":     randomGraph(11, 40, 90),
		"degenerate": degenerateGraph(),
	}
}

func TestEdgeRelevanceMatchesReference(t *testing.T) {
	for name, g := range equivalenceGraphs() {
		for _, workers := range []int{1, 4} {
			est := Estimator{Samples: 96, Seed: 5, Workers: workers}
			got := est.EdgeRelevance(g)
			want := referenceEdgeRelevance(est, g)
			for j := range want {
				if got[j] != want[j] {
					t.Errorf("%s workers=%d: EdgeRelevance[%d] = %v, reference %v",
						name, workers, j, got[j], want[j])
				}
			}
		}
	}
}

func TestDiscrepancyMatchesReference(t *testing.T) {
	for name, g := range equivalenceGraphs() {
		h := g.Clone()
		for i := 0; i < g.NumEdges(); i += 2 {
			if err := h.SetProb(i, h.Edge(i).P*0.75); err != nil {
				t.Fatal(err)
			}
		}
		want := referenceDiscrepancy(Estimator{Samples: 80, Seed: 9}, g, h)
		for _, workers := range []int{1, 4} {
			for _, cache := range []*LabelCache{nil, NewLabelCache()} {
				est := Estimator{Samples: 80, Seed: 9, Workers: workers, Cache: cache}
				got, err := est.Discrepancy(g, h)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s workers=%d cache=%v: Discrepancy = %v, reference %v",
						name, workers, cache != nil, got, want)
				}
				// A second call must replay identically whether it is a cache
				// hit or a full resample.
				again, err := est.Discrepancy(g, h)
				if err != nil {
					t.Fatal(err)
				}
				if again != want {
					t.Errorf("%s workers=%d cache=%v: repeat Discrepancy = %v, reference %v",
						name, workers, cache != nil, again, want)
				}
			}
		}
	}
}

func TestSampledPairDiscrepancyMatchesReference(t *testing.T) {
	g := randomGraph(13, 35, 70)
	h := g.Clone()
	for i := 0; i < 10; i++ {
		if err := h.SetProb(i, h.Edge(i).P/3); err != nil {
			t.Fatal(err)
		}
	}
	ps := PairSample{Pairs: 500, Seed: 3}
	want := referenceSampledPairDiscrepancy(Estimator{Samples: 64, Seed: 2}, g, h, ps)
	for _, workers := range []int{1, 4} {
		for _, cache := range []*LabelCache{nil, NewLabelCache()} {
			est := Estimator{Samples: 64, Seed: 2, Workers: workers, Cache: cache}
			got, err := est.SampledPairDiscrepancy(g, h, ps)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("workers=%d cache=%v: SampledPairDiscrepancy = %v, reference %v",
					workers, cache != nil, got, want)
			}
		}
	}
}

func TestPairReliabilityMatchesReference(t *testing.T) {
	for name, g := range equivalenceGraphs() {
		for _, workers := range []int{1, 4} {
			est := Estimator{Samples: 128, Seed: 17, Workers: workers}
			got := est.PairReliability(g, 0, int32(g.NumNodes()-1))
			want := referencePairReliability(est, g, 0, g.NumNodes()-1)
			if got != want {
				t.Errorf("%s workers=%d: PairReliability = %v, reference %v",
					name, workers, got, want)
			}
		}
	}
}

// TestReliabilityVectorMatchesReference: the vector counts label matches
// in the transposed labels, sampled afresh or read from the cache, and
// must equal the row-major count over the reference labels.
func TestReliabilityVectorMatchesReference(t *testing.T) {
	for name, g := range equivalenceGraphs() {
		est := Estimator{Samples: 128, Seed: 17}
		labels := referenceLabels(est, g)
		const src = 0
		want := make([]float64, g.NumNodes())
		for _, l := range labels {
			for v := range want {
				if l[v] == l[src] {
					want[v]++
				}
			}
		}
		for v := range want {
			want[v] *= 1 / float64(len(labels))
		}
		want[src] = 1
		for _, workers := range []int{1, 4} {
			for _, cache := range []*LabelCache{nil, NewLabelCache()} {
				est := Estimator{Samples: 128, Seed: 17, Workers: workers, Cache: cache}
				got := est.ReliabilityVector(g, src)
				for v := range want {
					if got[v] != want[v] {
						t.Errorf("%s workers=%d cache=%v: ReliabilityVector[%d] = %v, reference %v",
							name, workers, cache != nil, v, got[v], want[v])
					}
				}
			}
		}
	}
}

func TestExpectedConnectedPairsCachePathMatches(t *testing.T) {
	g := randomGraph(19, 30, 55)
	plain := Estimator{Samples: 100, Seed: 4}
	want := plain.ExpectedConnectedPairs(g)

	cached := Estimator{Samples: 100, Seed: 4, Cache: NewLabelCache()}
	if got := cached.ExpectedConnectedPairs(g); got != want {
		t.Fatalf("uncached-counting path with cache attached = %v, want %v", got, want)
	}
	// Populate the label cache, then the cc-summing hit path must agree too.
	if _, err := cached.Discrepancy(g, g.Clone()); err != nil {
		t.Fatal(err)
	}
	if cached.Cache.Len() == 0 {
		t.Fatal("Discrepancy did not populate the label cache")
	}
	if got := cached.ExpectedConnectedPairs(g); got != want {
		t.Fatalf("label-cache hit path = %v, want %v", got, want)
	}
}

// TestLabelCacheInvalidation pins the invalidation rule: any SetProb bumps
// the graph version, so stale labelings are never served.
func TestLabelCacheInvalidation(t *testing.T) {
	g := randomGraph(23, 25, 50)
	h := g.Clone()
	est := Estimator{Samples: 60, Seed: 8, Cache: NewLabelCache()}
	before, err := est.Discrepancy(g, h)
	if err != nil {
		t.Fatal(err)
	}
	if before != 0 {
		t.Fatalf("identical graphs should have zero discrepancy, got %v", before)
	}
	if err := h.SetProb(0, h.Edge(0).P/10); err != nil {
		t.Fatal(err)
	}
	after, err := est.Discrepancy(g, h)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceDiscrepancy(Estimator{Samples: 60, Seed: 8}, g, h)
	if after != want {
		t.Fatalf("post-mutation Discrepancy = %v, reference %v (stale cache entry served?)", after, want)
	}
}
