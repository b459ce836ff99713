package chameleon

// Benchmark harness regenerating the paper's tables and figures (see
// DESIGN.md §4 for the experiment index). Each BenchmarkTable*/Fig*
// exercises the code path that produces the corresponding artifact on the
// miniature quick datasets and reports the headline number via
// b.ReportMetric; `go run ./cmd/experiments` produces the full-scale
// versions recorded in EXPERIMENTS.md.

import (
	"math/rand/v2"
	"testing"
	"time"

	"chameleon/internal/centrality"
	"chameleon/internal/core"
	"chameleon/internal/exp"
	"chameleon/internal/gen"
	"chameleon/internal/metrics"
	"chameleon/internal/obs"
	"chameleon/internal/obs/expose"
	"chameleon/internal/privacy"
	"chameleon/internal/reliability"
	"chameleon/internal/uncertain"
)

func benchConfig() exp.Config {
	return exp.Config{Quick: true, Seed: 7, Samples: 150, MetricSamples: 5, Pairs: 1000}
}

func benchGraph(b *testing.B) *uncertain.Graph {
	b.Helper()
	cfg := benchConfig()
	g, err := cfg.BuildDataset(cfg.Datasets()[0])
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkTableIDatasets regenerates Table I: dataset construction and
// characteristic measurement.
func BenchmarkTableIDatasets(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		for _, d := range cfg.Datasets() {
			g, err := cfg.BuildDataset(d)
			if err != nil {
				b.Fatal(err)
			}
			_ = g.MeanProb()
			_ = g.ExpectedAvgDegree()
		}
	}
}

// BenchmarkFig3Distributions regenerates Figure 3: edge-probability and
// degree distributions of the datasets.
func BenchmarkFig3Distributions(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, _, err := cfg.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4RepAnDistortion regenerates one Figure 4 point: the
// Rep-An structural distortion against the Chameleon lower bound at the
// smallest k. The resulting ratio is reported as a metric.
func BenchmarkFig4RepAnDistortion(b *testing.B) {
	cfg := benchConfig()
	cfg.PaperKs = []int{100}
	var gap float64
	for i := 0; i < b.N; i++ {
		rows, err := cfg.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0]
		if r.Chameleon > 0 {
			gap = r.RepAn / r.Chameleon
		}
	}
	b.ReportMetric(gap, "repan/chameleon-error-ratio")
}

// benchFigureCell runs one (dataset, method, k) sweep cell and reports
// the chosen metric; shared by the Figure 8-11 benches.
func benchFigureCell(b *testing.B, method string, metric func(exp.Run) float64, unit string) {
	cfg := benchConfig()
	d := cfg.Datasets()[0]
	g, err := cfg.BuildDataset(d)
	if err != nil {
		b.Fatal(err)
	}
	base := cfg.MeasureBaseline(d, g)
	var last float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := cfg.RunCell(d, g, base, method, 200)
		if run.Failed {
			b.Fatalf("cell failed: %s", run.FailReason)
		}
		last = metric(run)
	}
	b.ReportMetric(last, unit)
}

// BenchmarkFig8Reliability regenerates Figure 8 cells: reliability
// preservation per method.
func BenchmarkFig8Reliability(b *testing.B) {
	for _, m := range exp.Methods {
		b.Run(m, func(b *testing.B) {
			benchFigureCell(b, m, func(r exp.Run) float64 { return r.RelDiscrepancy }, "rel-discrepancy")
		})
	}
}

// BenchmarkFig9AvgDegree regenerates Figure 9 cells: average-node-degree
// preservation per method.
func BenchmarkFig9AvgDegree(b *testing.B) {
	for _, m := range exp.Methods {
		b.Run(m, func(b *testing.B) {
			benchFigureCell(b, m, func(r exp.Run) float64 { return r.AvgDegreeErr }, "avg-degree-err")
		})
	}
}

// BenchmarkFig10AvgDistance regenerates Figure 10 cells: average-distance
// preservation per method.
func BenchmarkFig10AvgDistance(b *testing.B) {
	for _, m := range exp.Methods {
		b.Run(m, func(b *testing.B) {
			benchFigureCell(b, m, func(r exp.Run) float64 { return r.AvgDistanceErr }, "avg-distance-err")
		})
	}
}

// BenchmarkFig11Clustering regenerates Figure 11 cells: clustering
// coefficient preservation per method.
func BenchmarkFig11Clustering(b *testing.B) {
	for _, m := range exp.Methods {
		b.Run(m, func(b *testing.B) {
			benchFigureCell(b, m, func(r exp.Run) float64 { return r.ClusteringErr }, "clustering-err")
		})
	}
}

// BenchmarkERRNaiveVsReuse is the Lemma 2 vs Lemma 3 ablation: cost of
// the naive per-edge conditional estimator against the sample-reuse
// estimator of Algorithm 2 on the same workload.
func BenchmarkERRNaiveVsReuse(b *testing.B) {
	g, err := exp.ERRCostGraph(120, 3)
	if err != nil {
		b.Fatal(err)
	}
	est := reliability.Estimator{Samples: 100, Seed: 1, Workers: 1}
	b.Run("reuse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			est.EdgeRelevance(g)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			est.EdgeRelevanceNaive(g)
		}
	})
}

// BenchmarkMEvsUnguided is the Section V-F ablation: entropy gain per
// unit of injected noise, guided versus unguided perturbation.
func BenchmarkMEvsUnguided(b *testing.B) {
	g := benchGraph(b)
	base := privacy.TotalDegreeEntropy(g)
	b.Run("guided", func(b *testing.B) {
		var gain float64
		for i := 0; i < b.N; i++ {
			pert := core.PerturbAll(g, true, 0.2, 0.01, uint64(i))
			gain = privacy.TotalDegreeEntropy(pert) - base
		}
		b.ReportMetric(gain, "entropy-gain-bits")
	})
	b.Run("unguided", func(b *testing.B) {
		var gain float64
		for i := 0; i < b.N; i++ {
			pert := core.PerturbAll(g, false, 0.2, 0.01, uint64(i))
			gain = privacy.TotalDegreeEntropy(pert) - base
		}
		b.ReportMetric(gain, "entropy-gain-bits")
	})
}

// --- observability overhead: instrumented hot paths, observer off vs on ---

// BenchmarkObsOverheadAnonymize measures the cost of the instrumentation
// on the full sigma search: "off" runs with a nil observer (the no-op
// default, a pointer test per update), "on" with a live registry and
// logger-less observer. The two must stay within ~2% of each other.
func BenchmarkObsOverheadAnonymize(b *testing.B) {
	g := benchGraph(b)
	bench := func(o *obs.Observer) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Anonymize(g, core.Params{K: 8, Epsilon: 0.02, Samples: 100, Seed: 42, Obs: o}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("off", bench(nil))
	b.Run("on", bench(obs.NewObserver()))
}

// BenchmarkObsOverheadServe measures the serve-mode tax on the sigma
// search: a bare live observer against the same observer with the
// exposition endpoint bound, its snapshot differ (and runtime/metrics
// sampler) ticking fast in the background, and /metrics plus /trace
// scraped continuously. All of that work lives on the ticker goroutine
// and in request handlers, so the two must stay within ~2% of each other
// (TestObsOverheadGuard enforces it).
func BenchmarkObsOverheadServe(b *testing.B) {
	g := benchGraph(b)
	run := func(b *testing.B, o *obs.Observer) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Anonymize(g, core.Params{K: 8, Epsilon: 0.02, Samples: 100, Seed: 42, Obs: o}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, obs.NewObserver()) })
	b.Run("on", func(b *testing.B) {
		o := obs.NewObserver()
		srv := expose.New(o, expose.Options{Interval: 50 * time.Millisecond})
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		stop := make(chan struct{})
		scraped := make(chan struct{})
		go func() {
			defer close(scraped)
			scrape(addr, stop)
		}()
		defer func() { close(stop); <-scraped }()
		b.ResetTimer()
		run(b, o)
	})
}

// BenchmarkObsOverheadEdgeRelevance measures the instrumentation cost on
// the Monte Carlo estimator (worlds-sampled counters, per-worker counts,
// wall-time histogram) against the uninstrumented default.
func BenchmarkObsOverheadEdgeRelevance(b *testing.B) {
	g := benchGraph(b)
	bench := func(o *obs.Observer) func(*testing.B) {
		return func(b *testing.B) {
			est := reliability.Estimator{Samples: 150, Seed: 1, Obs: o}
			for i := 0; i < b.N; i++ {
				est.EdgeRelevance(g)
			}
		}
	}
	b.Run("off", bench(nil))
	b.Run("on", bench(obs.NewObserver()))
}

// --- micro-benchmarks for the hot paths underlying the experiments ---

func BenchmarkSampleWorld(b *testing.B) {
	g := benchGraph(b)
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SampleWorld(rng)
	}
}

func BenchmarkConnectedPairs(b *testing.B) {
	g := benchGraph(b)
	w := g.SampleWorld(rand.New(rand.NewPCG(1, 1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ConnectedPairs()
	}
}

// BenchmarkWorldSamplerInto measures the allocation-free world-drawing
// kernel (threshold compare per uncertain edge, word-blocked bit stores);
// allocs/op must be 0 — the steady state reuses the world's bitset.
func BenchmarkWorldSamplerInto(b *testing.B) {
	g := benchGraph(b)
	s := g.Sampler()
	var w uncertain.World
	var pcg rand.PCG
	pcg.Seed(1, 1)
	s.SampleInto(&w, &pcg) // grow the reused bitset
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pcg.Seed(1, uint64(i))
		s.SampleInto(&w, &pcg)
	}
}

// BenchmarkComponentsInto measures the fused union-find/pair-count kernel
// over a recycled DSU; allocs/op must be 0 on the steady state.
func BenchmarkComponentsInto(b *testing.B) {
	g := benchGraph(b)
	w := g.SampleWorld(rand.New(rand.NewPCG(1, 1)))
	d, _ := w.ComponentsPairsInto(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _ = w.ComponentsPairsInto(d)
	}
}

func BenchmarkObfuscationCheck(b *testing.B) {
	g := benchGraph(b)
	prop := privacy.DegreeProperty(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := privacy.CheckObfuscation(g, prop, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEdgeRelevance(b *testing.B) {
	g := benchGraph(b)
	est := reliability.Estimator{Samples: 150, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.EdgeRelevance(g)
	}
}

// BenchmarkEdgeRelevanceFallback runs EdgeRelevance on a graph shaped
// like each job of the end-to-end jobs-burst workload: 1,800 nodes of
// brightkite-like small probabilities, on one worker at N = 1000. A
// handful of its edges never appear in the 1,000 worlds, so every call
// also runs the shared conditional pass over 250 auxiliary worlds.
func BenchmarkEdgeRelevanceFallback(b *testing.B) {
	g, err := gen.BarabasiAlbert(1800, 2, gen.SmallProbs(0.29), rand.New(rand.NewPCG(1, 0xb00)))
	if err != nil {
		b.Fatal(err)
	}
	est := reliability.Estimator{Samples: 1000, Seed: 7, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.EdgeRelevance(g)
	}
}

// BenchmarkDiscrepancy measures one candidate evaluation as the sweep and
// the σ-search perform it: the original graph's sampled labels are held in
// the shared label cache (computed once per sweep), while the candidate is
// a fresh graph each time — modeled by bumping h's version so its cached
// labeling is stale. The per-op cost is therefore sampling the candidate's
// worlds plus the pair scan, which is exactly the marginal cost of one
// RunCell evaluation in cmd/experiments.
func BenchmarkDiscrepancy(b *testing.B) {
	g := benchGraph(b)
	h := core.PerturbAll(g, true, 0.2, 0.01, 5)
	p0 := h.Edge(0).P
	est := reliability.Estimator{Samples: 150, Seed: 1, Cache: reliability.NewLabelCache()}
	if _, err := est.SampledPairDiscrepancy(g, h, reliability.PairSample{Pairs: 1000, Seed: 2}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.SetProb(0, p0); err != nil { // next candidate: invalidate h's labeling
			b.Fatal(err)
		}
		if _, err := est.SampledPairDiscrepancy(g, h, reliability.PairSample{Pairs: 1000, Seed: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiscrepancyUncached is the cold-path variant: both graphs
// sampled and labeled from scratch every call, no cache attached.
func BenchmarkDiscrepancyUncached(b *testing.B) {
	g := benchGraph(b)
	h := core.PerturbAll(g, true, 0.2, 0.01, 5)
	est := reliability.Estimator{Samples: 150, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.SampledPairDiscrepancy(g, h, reliability.PairSample{Pairs: 1000, Seed: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// queryMixGraph is the end-to-end query-mix workload's graph at bench
// seed 1: 2,000 BA nodes of degree 3 with the dblp-s probability profile.
func queryMixGraph(b *testing.B) *uncertain.Graph {
	b.Helper()
	probs := gen.DiscreteProbs(
		[]float64{0.13, 0.28, 0.46, 0.64, 0.80},
		[]float64{0.15, 0.23, 0.27, 0.22, 0.13},
	)
	g, err := gen.BarabasiAlbert(2000, 3, probs, rand.New(rand.NewPCG(1, 0xc11)))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkReliabilityVector measures one knn query's reliability vector
// as the query plane serves it: N = 512 worlds of the query-mix graph
// held in a warm label cache, a different source each call.
func BenchmarkReliabilityVector(b *testing.B) {
	g := queryMixGraph(b)
	est := reliability.Estimator{Samples: 512, Seed: 11, Cache: reliability.NewLabelCache()}
	est.WarmCache(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.ReliabilityVector(g, uncertain.NodeID(i*7919%g.NumNodes()))
	}
}

// BenchmarkPairReliabilityCached measures one pair_reliability request's
// estimator call on the same warm cache; allocs/op must be 0.
func BenchmarkPairReliabilityCached(b *testing.B) {
	g := queryMixGraph(b)
	est := reliability.Estimator{Samples: 512, Seed: 11, Cache: reliability.NewLabelCache()}
	est.WarmCache(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.PairReliability(g, uncertain.NodeID(i*7919%g.NumNodes()), uncertain.NodeID(i*104729%g.NumNodes()))
	}
}

// perturbDown returns a clone of g with every probability pushed DOWN by
// delta (clamped away from 0): a one-directional perturbation keeps the
// Δ-discrepancy mean away from zero, which a relative-SE stopping target
// needs — a symmetric perturbation's Δ hovers near 0 and no sample budget
// reaches a 5% RELATIVE error on it.
func perturbDown(b *testing.B, g *uncertain.Graph, delta float64) *uncertain.Graph {
	b.Helper()
	h := g.Clone()
	for i := 0; i < h.NumEdges(); i++ {
		p := h.Edge(i).P - delta
		if p < 0.01 {
			p = 0.01
		}
		if err := h.SetProb(i, p); err != nil {
			b.Fatal(err)
		}
	}
	return h
}

// BenchmarkMCSampleEfficiency measures how many Monte Carlo worlds each
// sampling strategy needs to estimate the Figure 4 Δ-discrepancy
// (E[cc(G)] - E[cc(G̃)]) to a 5% relative standard error:
//
//   - fixed: the status-quo fixed-budget estimator. A pilot run measures
//     the achieved RSE, from which the budget a fixed-N user would have to
//     provision follows as N_req = N_pilot * (rse/target)^2.
//   - adaptive: sequential stopping with independent two-sample draws —
//     the samples the closed loop actually consumed.
//   - adaptive-crn: sequential stopping with coupled draws (common random
//     numbers across G and G̃), collapsing the difference's variance.
//
// The per-arm counts land in BENCH_mc.json via the samples_to_target_rse
// metric; scripts/check.sh gates the fixed vs adaptive-crn ratio at >= 5x.
func BenchmarkMCSampleEfficiency(b *testing.B) {
	const (
		targetRSE = 0.05
		pilotN    = 1024
		capN      = 1 << 16
	)
	cfg := benchConfig()
	base, err := cfg.BuildDataset(cfg.Datasets()[0])
	if err != nil {
		b.Fatal(err)
	}
	pert := perturbDown(b, base, 0.01)

	b.Run("fixed", func(b *testing.B) {
		o := obs.NewObserver()
		est := reliability.Estimator{Samples: pilotN, Seed: 42, Obs: o}
		var needed float64
		for i := 0; i < b.N; i++ {
			if _, err := est.DeltaExpectedConnectedPairs(base, pert); err != nil {
				b.Fatal(err)
			}
			rse := o.Registry().Snapshot().Gauges["mc.quality.DeltaExpectedConnectedPairs.last_rse"]
			needed = pilotN * (rse / targetRSE) * (rse / targetRSE)
		}
		b.ReportMetric(needed, "samples_to_target_rse")
	})
	for _, arm := range []struct {
		name string
		mode uncertain.SamplingMode
	}{
		{"adaptive", uncertain.SampleIndependent},
		{"adaptive-crn", uncertain.SampleCoupled},
	} {
		arm := arm
		b.Run(arm.name, func(b *testing.B) {
			o := obs.NewObserver()
			est := reliability.Estimator{
				Seed: 42, Obs: o, Mode: arm.mode,
				TargetRSE: targetRSE, MaxSamples: capN,
			}
			for i := 0; i < b.N; i++ {
				if _, err := est.DeltaExpectedConnectedPairs(base, pert); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(o.Registry().Snapshot().Gauges["mc.adaptive.last_samples"], "samples_to_target_rse")
		})
	}
}

func BenchmarkAnonymizeRSME(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Anonymize(g, core.Params{K: 8, Epsilon: 0.02, Samples: 100, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMetricsDistance(b *testing.B) {
	g := benchGraph(b)
	o := metrics.Options{Samples: 5, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Distances(g)
	}
}

func BenchmarkGenerateDatasets(b *testing.B) {
	for _, d := range gen.Datasets() {
		d := d
		b.Run(d.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := d.Build(rand.New(rand.NewPCG(uint64(i), 1))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAttackValidation is the extension experiment A3: the Bayesian
// degree-knowledge attack against original and anonymized releases.
func BenchmarkAttackValidation(b *testing.B) {
	cfg := benchConfig()
	cfg.PaperKs = []int{100}
	var posterior float64
	for i := 0; i < b.N; i++ {
		rows, err := cfg.AttackExperiment()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Method == "RSME" && !r.Failed {
				posterior = r.MeanPosterior
				break
			}
		}
	}
	b.ReportMetric(posterior, "rsme-mean-posterior")
}

// BenchmarkKNNPreservation is the extension experiment A4: reliability
// k-NN preservation per method.
func BenchmarkKNNPreservation(b *testing.B) {
	cfg := benchConfig()
	cfg.PaperKs = []int{100}
	var score float64
	for i := 0; i < b.N; i++ {
		rows, err := cfg.KNNExperiment()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Method == "RSME" && !r.Failed {
				score = r.Score
				break
			}
		}
	}
	b.ReportMetric(score, "rsme-knn-preservation")
}

// BenchmarkCSweepAblation is the extension experiment A5: the effect of
// the candidate-set multiplier c on noise level and utility.
func BenchmarkCSweepAblation(b *testing.B) {
	cfg := benchConfig()
	cfg.PaperKs = []int{100, 150}
	for i := 0; i < b.N; i++ {
		if _, err := cfg.CSweepAblation([]float64{1.5, 3.0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPComparison is the extension experiment comparing the
// syntactic uncertainty-aware release against the dK-1 differential
// privacy baseline of the related work.
func BenchmarkDPComparison(b *testing.B) {
	cfg := benchConfig()
	cfg.PaperKs = []int{100}
	var gap float64
	for i := 0; i < b.N; i++ {
		rows, err := cfg.DPComparison()
		if err != nil {
			b.Fatal(err)
		}
		var rsme, dp float64
		for _, r := range rows {
			if r.Dataset != "dblp-q" || r.Failed {
				continue
			}
			switch r.Method {
			case "RSME":
				rsme = r.RelDiscrepancy
			case "DP-1K(2.0)":
				dp = r.RelDiscrepancy
			}
		}
		if rsme > 0 {
			gap = dp / rsme
		}
	}
	b.ReportMetric(gap, "dp/rsme-error-ratio")
}

// BenchmarkCentralityPreservation is the extension experiment measuring
// expected-betweenness preservation per method.
func BenchmarkCentralityPreservation(b *testing.B) {
	cfg := benchConfig()
	cfg.PaperKs = []int{100}
	var overlap float64
	for i := 0; i < b.N; i++ {
		rows, err := cfg.CentralityExperiment()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Method == "RSME" && !r.Failed {
				overlap = r.Overlap
				break
			}
		}
	}
	b.ReportMetric(overlap, "rsme-top20-overlap")
}

// BenchmarkExtractionAblation compares the representative extractors of
// the [29] design space.
func BenchmarkExtractionAblation(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.ExtractionAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBetweenness measures Brandes' algorithm on one sampled world.
func BenchmarkBetweenness(b *testing.B) {
	g := benchGraph(b)
	w := g.SampleWorld(rand.New(rand.NewPCG(1, 1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		centrality.Betweenness(w)
	}
}
