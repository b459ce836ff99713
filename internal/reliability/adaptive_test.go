package reliability

import (
	"math"
	"testing"

	"chameleon/internal/obs"
	"chameleon/internal/uncertain"
)

// TestAdaptiveStopsEarly: with a loose target on a well-behaved statistic,
// the sequential stopping rule must cut sampling far short of the cap, at
// a chunk boundary, and past the minimum floor.
func TestAdaptiveStopsEarly(t *testing.T) {
	g := randomGraph(71, 40, 120)
	est := Estimator{Seed: 1, Workers: 1, TargetRSE: 0.05, MaxSamples: 16384}
	w := est.forEachSample(g, nil, func(i int, sc *scratch) int64 {
		_, pairs := sc.componentsPairs()
		return pairs
	})
	n := int(w.Count())
	if n >= est.maxSamples() {
		t.Fatalf("adaptive run consumed the full cap (%d samples); expected early stop", n)
	}
	if n < adaptiveMinSamples {
		t.Fatalf("stopped at %d samples, below the %d-sample floor", n, adaptiveMinSamples)
	}
	if n%sampleChunk != 0 {
		t.Fatalf("stopped at %d, not a %d-world chunk boundary", n, sampleChunk)
	}
	if rse := w.RelStdErr(); rse > est.TargetRSE {
		t.Fatalf("stopped with RSE %v above target %v", rse, est.TargetRSE)
	}
}

// TestAdaptiveCapped: an unreachable target must stop exactly at the cap.
func TestAdaptiveCapped(t *testing.T) {
	g := randomGraph(72, 40, 110)
	est := Estimator{Seed: 2, Workers: 1, TargetRSE: 1e-12, MaxSamples: 256}
	w := est.forEachSample(g, nil, func(i int, sc *scratch) int64 {
		_, pairs := sc.componentsPairs()
		return pairs
	})
	if int(w.Count()) != 256 {
		t.Fatalf("capped run counted %d samples, want exactly the 256 cap", int(w.Count()))
	}
}

// TestAdaptiveWorkerIndependence: the stopping decision is a function of
// the chunk-order prefix alone, so every worker count must stop at the
// same sample count with identical moments — the parallel rounds replay
// the serial schedule exactly. The paired inputs run the same scheduler
// over index-aligned worlds of g and a perturbed copy, under every mode.
func TestAdaptiveWorkerIndependence(t *testing.T) {
	g := randomGraph(73, 50, 100)
	h := perturbClone(g, 0.2)
	type input struct {
		name   string
		mode   uncertain.SamplingMode
		h      *uncertain.Graph
		target float64
	}
	inputs := []input{{name: "single", target: 0.04}}
	for _, mode := range allModes {
		inputs = append(inputs, input{name: "paired/" + mode.String(), mode: mode, h: h, target: 0.05})
	}
	for _, in := range inputs {
		run := func(workers int) tally {
			est := Estimator{Seed: 3, Workers: workers, TargetRSE: in.target, MaxSamples: 8192, Mode: in.mode}
			return est.forEachSample(g, in.h, func(i int, sc *scratch) int64 {
				_, pairs := sc.componentsPairs()
				if in.h == nil {
					return pairs
				}
				_, hp := sc.pair.componentsPairs()
				return pairs - hp
			})
		}
		serial := run(1)
		if serial.Count() >= 8192 || serial.Count() < adaptiveMinSamples {
			t.Fatalf("%s: serial baseline stopped at %v samples; test needs a mid-range stop", in.name, serial.Count())
		}
		for _, workers := range []int{2, 3, 4, 5, 7} {
			par := run(workers)
			if par.Count() != serial.Count() {
				t.Fatalf("%s: workers=%d stopped at %v samples, serial at %v", in.name, workers, par.Count(), serial.Count())
			}
			if math.Abs(par.Mean()-serial.Mean()) > 1e-9*math.Abs(serial.Mean()) {
				t.Errorf("%s: workers=%d: mean %v != serial %v", in.name, workers, par.Mean(), serial.Mean())
			}
			if math.Abs(par.Variance()-serial.Variance()) > 1e-6*serial.Variance() {
				t.Errorf("%s: workers=%d: variance %v != serial %v", in.name, workers, par.Variance(), serial.Variance())
			}
			if par != serial {
				t.Errorf("%s: workers=%d: accumulator %+v is not bit-identical to serial %+v", in.name, workers, par, serial)
			}
		}
	}
}

// TestAdaptiveEstimateMatchesExactAndFixed: adaptive estimates target the
// same quantity as fixed-budget ones; with a tight target the estimate
// must land near the fixed-N reference.
func TestAdaptiveEstimateMatchesExactAndFixed(t *testing.T) {
	g := smallGraph()
	fixed := Estimator{Samples: 20000, Seed: 1}.ExpectedConnectedPairs(g)
	adaptive := Estimator{Seed: 1, TargetRSE: 0.01, MaxSamples: 32768}.ExpectedConnectedPairs(g)
	if math.Abs(fixed-adaptive) > 0.25 {
		t.Fatalf("adaptive E[cc] = %v, fixed-N reference = %v", adaptive, fixed)
	}
}

// TestAdaptiveMetricsClosedLoop: an adaptive run must publish the
// mc.adaptive.* gauges and the per-op stop-reason counters, and must NOT
// bump the fixed-budget mc.quality.undersampled flag — the budget is the
// closed loop now (ISSUE 7 satellite: converged vs capped are
// distinguishable).
func TestAdaptiveMetricsClosedLoop(t *testing.T) {
	g := randomGraph(74, 40, 100)
	o := obs.NewObserver()
	est := Estimator{Seed: 4, Obs: o, TargetRSE: 0.05, MaxSamples: 16384}
	est.ExpectedConnectedPairs(g)
	snap := o.Registry().Snapshot()
	for _, gauge := range []string{
		"mc.adaptive.last_samples", "mc.adaptive.last_drawn",
		"mc.adaptive.last_rse", "mc.adaptive.last_savings",
	} {
		if _, ok := snap.Gauges[gauge]; !ok {
			t.Errorf("missing adaptive gauge %s", gauge)
		}
	}
	if snap.Gauges["mc.adaptive.last_drawn"] < snap.Gauges["mc.adaptive.last_samples"] {
		t.Error("drawn worlds cannot be fewer than counted samples")
	}
	if snap.Counters["mc.adaptive.converged"]+snap.Counters["mc.adaptive.capped"] == 0 {
		t.Error("no adaptive stop reason recorded")
	}
	if snap.Counters["mc.quality.undersampled"] != 0 {
		t.Error("adaptive run bumped the fixed-budget undersampled flag")
	}
	converged := snap.Counters["mc.adaptive.ExpectedConnectedPairs.converged"]
	capped := snap.Counters["mc.adaptive.ExpectedConnectedPairs.capped"]
	if converged+capped != 1 {
		t.Errorf("per-op stop reason: converged=%d capped=%d, want exactly one", converged, capped)
	}

	// A capped run flips the per-op reason.
	o2 := obs.NewObserver()
	Estimator{Seed: 4, Obs: o2, TargetRSE: 1e-12, MaxSamples: 256}.ExpectedConnectedPairs(g)
	snap2 := o2.Registry().Snapshot()
	if snap2.Counters["mc.adaptive.ExpectedConnectedPairs.capped"] != 1 {
		t.Error("unreachable target did not record a capped stop for the op")
	}
	if snap2.Counters["mc.quality.undersampled"] != 0 {
		t.Error("capped adaptive run leaked into the undersampled counter")
	}
}

// TestAdaptiveLoopSteadyStateAllocs: the serial adaptive chunk loop must
// keep the zero-allocation steady state of the fixed path — the stopping
// rule reads a stack accumulator, the draw kernels are package functions,
// and nothing in the chunk loop escapes.
func TestAdaptiveLoopSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; guard runs in the non-race pass")
	}
	g := randomGraph(75, 60, 140)
	visit := func(i int, sc *scratch) int64 { _, p := sc.componentsPairs(); return p }
	for _, mode := range allModes {
		est := Estimator{Seed: 1, Workers: 1, TargetRSE: 0.05, MaxSamples: 512, Mode: mode}
		est.forEachSample(g, nil, visit) // warm-up: sampler snapshot + pooled scratch
		allocs := testing.AllocsPerRun(20, func() {
			est.forEachSample(g, nil, visit)
		})
		if allocs != 0 {
			t.Errorf("mode %v: adaptive serial loop allocated %v times per pass, want 0", mode, allocs)
		}
	}
}

// allModes lists every sampling mode.
var allModes = []uncertain.SamplingMode{
	uncertain.SampleIndependent, uncertain.SampleAntithetic,
	uncertain.SampleStratified, uncertain.SampleCoupled,
}

// TestModeWorkerIndependence: every sampling mode draws world i as a pure
// function of (seed, i), so parallel scheduling must replay the serial
// worlds for all modes — including the paired antithetic indices and the
// paired second graph — and the fixed-budget accumulator, merged in chunk
// order, must come back bit-identical for any worker count.
func TestModeWorkerIndependence(t *testing.T) {
	g := randomGraph(76, 50, 110)
	h := perturbClone(g, 0.05)
	for _, mode := range allModes {
		for _, hv := range []*uncertain.Graph{nil, h} {
			collect := func(workers int) ([]int64, tally) {
				est := Estimator{Samples: 450, Seed: 5, Workers: workers, Mode: mode}
				out := make([]int64, 2*est.samples())
				w := est.forEachSample(g, hv, func(i int, sc *scratch) int64 {
					_, out[2*i] = sc.componentsPairs()
					if hv != nil {
						_, out[2*i+1] = sc.pair.componentsPairs()
					}
					return out[2*i] - out[2*i+1]
				})
				return out, w
			}
			serial, serialStat := collect(1)
			for _, workers := range []int{2, 5, 7} {
				got, stat := collect(workers)
				for i := range serial {
					if got[i] != serial[i] {
						t.Fatalf("mode %v paired=%v workers=%d: world %d of graph %d has %d pairs, serial drew %d",
							mode, hv != nil, workers, i/2, i%2, got[i], serial[i])
					}
				}
				if stat != serialStat {
					t.Errorf("mode %v paired=%v workers=%d: accumulator %+v is not bit-identical to serial %+v",
						mode, hv != nil, workers, stat, serialStat)
				}
			}
		}
	}
}

// TestLabelKeyCoversSamplingTuple: every field of the sampling tuple must
// change the label-cache key, or a mode or adaptive change would silently
// serve stale labels.
func TestLabelKeyCoversSamplingTuple(t *testing.T) {
	g := randomGraph(77, 20, 40)
	base := Estimator{Samples: 100, Seed: 1}
	variants := []Estimator{
		{Samples: 100, Seed: 1, Mode: uncertain.SampleAntithetic},
		{Samples: 100, Seed: 1, Mode: uncertain.SampleStratified},
		{Samples: 100, Seed: 1, Mode: uncertain.SampleCoupled},
		{Samples: 100, Seed: 1, TargetRSE: 0.05},
		{Samples: 100, Seed: 1, TargetRSE: 0.01},
		{Samples: 100, Seed: 1, TargetRSE: 0.05, MaxSamples: 4096},
		{Samples: 200, Seed: 1},
		{Samples: 100, Seed: 2},
	}
	seen := map[labelKey]int{base.labelKeyFor(g): -1}
	for i, v := range variants {
		k := v.labelKeyFor(g)
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %d collides with %d: %+v", i, prev, k)
		}
		seen[k] = i
	}
}

// TestLabelCacheMissesOnModeChange: the functional half of the satellite —
// re-querying the same graph under a different sampling mode must MISS the
// cache and produce a fresh labeling, not serve the stale one.
func TestLabelCacheMissesOnModeChange(t *testing.T) {
	g := randomGraph(78, 25, 50)
	cache := NewLabelCache()
	o := obs.NewObserver()
	indep := Estimator{Samples: 100, Seed: 3, Cache: cache, Obs: o}
	anti := Estimator{Samples: 100, Seed: 3, Cache: cache, Obs: o, Mode: uncertain.SampleAntithetic}

	indep.sampleLabelsT(g)
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries after first labeling, want 1", cache.Len())
	}
	anti.sampleLabelsT(g)
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d entries after mode change, want 2 (mode change must miss)", cache.Len())
	}
	snap := o.Registry().Snapshot()
	if snap.Counters["mc.label_cache.misses"] != 2 || snap.Counters["mc.label_cache.hits"] != 0 {
		t.Errorf("hits=%d misses=%d, want 0/2: the mode change must not hit",
			snap.Counters["mc.label_cache.hits"], snap.Counters["mc.label_cache.misses"])
	}
	indep.sampleLabelsT(g) // unchanged tuple: now a hit
	if got := o.Registry().Snapshot().Counters["mc.label_cache.hits"]; got != 1 {
		t.Errorf("re-query under the original tuple recorded %d hits, want 1", got)
	}
}

// TestCoupledDiscrepancyOrderInvariant: the sharp common-random-numbers
// contract at the metric level. Two graphs with the SAME edge set but
// different insertion order draw identical worlds under the coupled mode
// (draws are keyed by endpoints, not edge position), so their discrepancy
// is exactly zero — while the position-keyed independent streams
// decorrelate and leave sampling noise.
func TestCoupledDiscrepancyOrderInvariant(t *testing.T) {
	edges := []struct {
		u, v uncertain.NodeID
		p    float64
	}{
		{0, 1, 0.9}, {1, 2, 0.5}, {2, 3, 0.7}, {3, 4, 0.2}, {0, 2, 0.3}, {4, 5, 0.8},
	}
	ga := uncertain.New(6)
	for _, e := range edges {
		ga.MustAddEdge(e.u, e.v, e.p)
	}
	gb := uncertain.New(6)
	for i := len(edges) - 1; i >= 0; i-- {
		gb.MustAddEdge(edges[i].u, edges[i].v, edges[i].p)
	}

	coupled := Estimator{Samples: 500, Seed: 7, Mode: uncertain.SampleCoupled}
	d, err := coupled.Discrepancy(ga, gb)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("coupled discrepancy over reordered edge lists = %v, want exactly 0", d)
	}

	indep := Estimator{Samples: 500, Seed: 7}
	di, err := indep.Discrepancy(ga, gb)
	if err != nil {
		t.Fatal(err)
	}
	if di == 0 {
		t.Fatal("independent streams are position-keyed; reordering should decorrelate them")
	}
}

// TestDeltaExpectedConnectedPairsCRN: the paired Δ estimator must match
// the difference of exact expectations, and the coupled mode must achieve
// a large variance-reduction factor on a small perturbation — the
// mechanism behind the ≥5× sample-efficiency acceptance criterion.
func TestDeltaExpectedConnectedPairsCRN(t *testing.T) {
	g := randomGraph(79, 30, 70)
	h := perturbClone(g, 0.05)

	fixedΔ := Estimator{Samples: 30000, Seed: 11}.mustDelta(t, g, h)
	o := obs.NewObserver()
	crn := Estimator{Seed: 11, Mode: uncertain.SampleCoupled, Obs: o,
		TargetRSE: 0.05, MaxSamples: 30000}
	crnΔ := crn.mustDelta(t, g, h)
	if math.Abs(crnΔ-fixedΔ) > 0.35*math.Abs(fixedΔ)+0.5 {
		t.Errorf("coupled Δ = %v, independent fixed-N Δ = %v", crnΔ, fixedΔ)
	}
	snap := o.Registry().Snapshot()
	if vr := snap.Gauges["mc.adaptive.vr_factor"]; vr < 3 {
		t.Errorf("coupled variance-reduction factor = %v, want >= 3 on a 5%% perturbation", vr)
	}
	if snap.Gauges["mc.adaptive.last_samples"] >= 30000 {
		t.Error("coupled adaptive Δ did not stop before the cap")
	}
}

func (e Estimator) mustDelta(t *testing.T, g, h *uncertain.Graph) float64 {
	t.Helper()
	d, err := e.DeltaExpectedConnectedPairs(g, h)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// perturbClone copies g and lowers every uncertain edge's probability by
// eps (clamped away from 0), modeling a near-identical, slightly less
// connected candidate of the σ-search. One-directional so the Δ of
// expected connectivity has real magnitude — a relative-SE stopping target
// is unreachable on a near-zero mean.
func perturbClone(g *uncertain.Graph, eps float64) *uncertain.Graph {
	h := uncertain.New(g.NumNodes())
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		p := e.P
		if p > 0 && p < 1 {
			p -= eps
			if p <= 0 {
				p = 0.01
			}
		}
		h.MustAddEdge(e.U, e.V, p)
	}
	return h
}

// BenchmarkAdaptiveChunkLoop measures the steady-state adaptive sampling
// loop on the serial path under the coupled sampler: one full sequential
// pass (draw chunk, merge Welford, check stop rule) per op over a warm
// estimator. allocs/op must stay 0 — scripts/check.sh gates it alongside
// the world-sampler kernels, so the closed loop never grows a per-chunk
// allocation.
func BenchmarkAdaptiveChunkLoop(b *testing.B) {
	g := randomGraph(79, 120, 300)
	est := Estimator{Seed: 1, Workers: 1, TargetRSE: 0.02, MaxSamples: 1024, Mode: uncertain.SampleCoupled}
	visit := func(i int, sc *scratch) int64 {
		_, p := sc.componentsPairs()
		return p
	}
	est.forEachSample(g, nil, visit) // warm-up: sampler snapshot + pooled scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.forEachSample(g, nil, visit)
	}
}

// TestAdaptiveEdgeRelevanceWorkerIndependence: adaptive EdgeRelevance sums
// its worlds on the workers, and a parallel round may draw chunks past the
// stopping point, which are drawn again and subtracted. Every worker count
// must give the serial estimates bit for bit under every mode, and each
// mode must have had worlds to subtract on some worker count.
func TestAdaptiveEdgeRelevanceWorkerIndependence(t *testing.T) {
	g := randomGraph(80, 50, 120)
	for _, mode := range allModes {
		run := func(workers int) ([]float64, map[string]float64) {
			o := obs.NewObserver()
			est := Estimator{Seed: 6, Workers: workers, TargetRSE: 0.01, MaxSamples: 8192, Mode: mode, Obs: o}
			return est.EdgeRelevance(g), o.Registry().Snapshot().Gauges
		}
		serial, gauges := run(1)
		if n := gauges["err.worlds"]; n >= 8192 || n < adaptiveMinSamples {
			t.Fatalf("mode %v: serial run stopped at %v worlds; test needs a mid-range stop", mode, n)
		}
		subtracted := false
		for _, workers := range []int{2, 3, 5, 7} {
			got, gauges := run(workers)
			if gauges["mc.adaptive.last_drawn"] > gauges["mc.adaptive.last_samples"] {
				subtracted = true
			}
			for j := range serial {
				if got[j] != serial[j] {
					t.Fatalf("mode %v workers=%d: EdgeRelevance[%d] = %v, serial %v", mode, workers, j, got[j], serial[j])
				}
			}
		}
		if !subtracted {
			t.Errorf("mode %v: no worker count drew past the stopping point; the subtraction went untested", mode)
		}
	}
}
