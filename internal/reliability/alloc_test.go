package reliability

import "testing"

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
	visit := func(i int, sc *scratch) float64 { sc.componentsPairs(); return 0 }
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
		est.forEachSample(g, nil, func(i int, sc *scratch) float64 {
			_, out[i] = sc.componentsPairs()
			return float64(out[i])
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
