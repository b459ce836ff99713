package reliability

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"chameleon/internal/uncertain"
)

// TestForEachSampleSteadyStateAllocs enforces the tentpole guarantee: the
// steady-state sampling loop — draw world, union components, count pairs —
// performs zero allocations. Everything lives in the pooled per-worker
// scratch (PCG re-seeded in place, bitset world, recycled DSU), the
// sampler snapshot is cached on the graph, and the nil-Observer metrics
// path hands out nil instruments without allocating.
func TestForEachSampleSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; guard runs in the non-race pass")
	}
	g := randomGraph(31, 60, 140)
	est := Estimator{Samples: 64, Seed: 1, Workers: 1}
	visit := func(i int, sc *scratch) int64 { sc.componentsPairs(); return 0 }
	// Warm-up: builds the sampler snapshot, grows the pooled scratch's
	// bitset and DSU to this graph's size.
	est.forEachSample(g, nil, visit)
	allocs := testing.AllocsPerRun(20, func() {
		est.forEachSample(g, nil, visit)
	})
	if allocs != 0 {
		t.Fatalf("steady-state sampling allocated %v times per pass, want 0", allocs)
	}
}

// TestForEachSampleWorkerIndependence: the chunked parallel scheduler must
// produce results identical to the serial loop for any worker count —
// world i is always drawn from RNG state (Seed, streamFor(i)) regardless
// of which worker claims it.
func TestForEachSampleWorkerIndependence(t *testing.T) {
	g := randomGraph(37, 50, 110)
	collect := func(workers int) []int64 {
		est := Estimator{Samples: 130, Seed: 3, Workers: workers}
		out := make([]int64, est.samples())
		est.forEachSample(g, nil, func(i int, sc *scratch) int64 {
			_, out[i] = sc.componentsPairs()
			return out[i]
		})
		return out
	}
	serial := collect(1)
	for _, workers := range []int{2, 4, 7} {
		got := collect(workers)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: world %d has %d connected pairs, serial drew %d",
					workers, i, got[i], serial[i])
			}
		}
	}
}

// TestEdgeRelevanceAllocatesPerWorker: EdgeRelevance keeps one per-edge sum
// array per worker, not a copy of every world, so an adaptive call with a
// 16384-world cap allocates O(workers·m) bytes, far below the cap·m/8
// bytes that storing each world's presence mask takes. Probabilities in
// [0.2, 0.8] keep every edge off the conditional fallback.
func TestEdgeRelevanceAllocatesPerWorker(t *testing.T) {
	const n, m, workers = 1000, 4000, 2
	rng := rand.New(rand.NewPCG(81, 82))
	g := uncertain.New(n)
	for g.NumEdges() < m {
		u, v := uncertain.NodeID(rng.IntN(n)), uncertain.NodeID(rng.IntN(n))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, 0.2+0.6*rng.Float64())
		}
	}
	est := Estimator{Seed: 1, Workers: workers, TargetRSE: 0.05, MaxSamples: 16384}
	est.EdgeRelevance(g) // warm-up: the sampler snapshot
	// Two collections empty the package's pools, so the measured call pays
	// for every buffer it uses.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	est.EdgeRelevance(g)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %d bytes for m=%d edges on %d workers", got, m, workers)
	if limit := uint64(64 * (workers + 1) * m); got > limit {
		t.Fatalf("adaptive EdgeRelevance allocated %d bytes, want at most %d = 64·(workers+1)·m (a presence mask per world is %d)",
			got, limit, est.maxSamples()*m/8)
	}
}
