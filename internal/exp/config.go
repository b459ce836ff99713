// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Table I, Table II, Figures 3, 4, 8, 9,
// 10, 11) plus the ablation studies, on the scaled synthetic datasets
// documented in DESIGN.md.
package exp

import (
	"context"
	"math/rand/v2"

	"chameleon/internal/core"
	"chameleon/internal/gen"
	"chameleon/internal/obs"
	"chameleon/internal/reliability"
	"chameleon/internal/uncertain"
)

// Config controls the fidelity/cost trade-off of an experiment run.
type Config struct {
	// Samples is the Monte Carlo budget for reliability estimation
	// (default 1000, the paper's setting).
	Samples int
	// MetricSamples is the world budget for distance/clustering metrics
	// (default 50).
	MetricSamples int
	// Pairs is the vertex-pair sample for discrepancy estimation
	// (default 20000).
	Pairs int
	// PaperKs are the obfuscation levels at paper scale; they are mapped
	// to each dataset via k/|V| scaling. Default {100, 150, 200, 250, 300}.
	PaperKs []int
	// Seed drives all randomness.
	Seed uint64
	// SamplingMode selects the world-drawing strategy for every reliability
	// estimator of the run (independent/antithetic/stratified/coupled; see
	// uncertain.SamplingMode).
	SamplingMode uncertain.SamplingMode
	// TargetRSE, when positive, switches the run's estimators to adaptive
	// sequential stopping at the given relative standard error (the fixed
	// Samples budget then becomes irrelevant; MaxSamples caps the draw).
	TargetRSE float64
	// MaxSamples caps adaptive sampling; 0 = reliability.DefaultMaxSamples.
	MaxSamples int
	// Workers caps parallelism (0 = GOMAXPROCS).
	Workers int
	// Quick switches to miniature datasets and reduced budgets; used by
	// tests and the -quick CLI flag.
	Quick bool
	// Obs, when non-nil, collects per-sweep-cell trace spans, Monte Carlo
	// sampling metrics and structured progress logs for the whole run.
	Obs *obs.Observer
	// Ctx, when non-nil, cancels the experiment cooperatively: sweeps stop
	// between cells, the σ-search inside a cell stops at GenObf attempt
	// boundaries, and Monte Carlo estimation stops at chunk boundaries.
	// Entry points return the context error; partially computed rows and
	// cells are discarded, never reported or checkpointed.
	Ctx context.Context
	// Cells, when non-nil, checkpoints sweeps at cell granularity: finished
	// (dataset, method, k) cells are replayed from the store instead of
	// recomputed, so an interrupted sweep resumes where it stopped with
	// results identical to an uninterrupted run.
	Cells *CellStore

	// prog tracks sweep-cell completion for the run.progress /
	// run.eta_seconds gauges. Installed by withDefaults; shared across the
	// by-value Config copies of one run because it is a pointer.
	prog *sweepProgress

	// cache memoizes sampled component labelings across the estimator calls
	// of one experiment (installed by withDefaults, so every exported entry
	// point gets one). The original graph of a sweep is re-labeled for every
	// (method, k) cell without it; with it the labeling is computed once per
	// estimator configuration and every later discrepancy call is a lookup.
	cache *reliability.LabelCache
}

func (c Config) withDefaults() Config {
	if c.cache == nil {
		c.cache = reliability.NewLabelCache()
	}
	if c.prog == nil {
		c.prog = &sweepProgress{}
	}
	if c.Samples <= 0 {
		if c.Quick {
			c.Samples = 200
		} else {
			c.Samples = 1000
		}
	}
	if c.MetricSamples <= 0 {
		if c.Quick {
			c.MetricSamples = 10
		} else {
			c.MetricSamples = 50
		}
	}
	if c.Pairs <= 0 {
		if c.Quick {
			c.Pairs = 2000
		} else {
			c.Pairs = 20000
		}
	}
	if len(c.PaperKs) == 0 {
		c.PaperKs = []int{100, 150, 200, 250, 300}
	}
	return c
}

// estimator builds a reliability estimator carrying the run's full
// sampling tuple (mode, adaptive target/cap). samples <= 0 means the
// configured budget; seedOff preserves each call site's historical seed
// offset so existing fixed-N runs replay unchanged.
func (c Config) estimator(samples int, seedOff uint64) reliability.Estimator {
	if samples <= 0 {
		samples = c.Samples
	}
	return reliability.Estimator{
		Samples: samples, Seed: c.Seed + seedOff, Workers: c.Workers,
		Obs: c.Obs, Cache: c.cache, Mode: c.SamplingMode,
		TargetRSE: c.TargetRSE, MaxSamples: c.MaxSamples, Ctx: c.Ctx,
	}
}

// Check rejects a configuration that would fail every cell it ran: an
// unknown method name, or a sampling tuple the reliability estimator
// refuses. Call it on the configuration as given, before any experiment
// runs (defaults would mask a negative sample budget).
func (c Config) Check(methods []string) error {
	for _, m := range methods {
		if _, err := core.ParseVariant(m); err != nil {
			return err
		}
	}
	return c.estimator(0, 0).Check()
}

// searchParams is the σ-search parameterization every experiment starts
// from. It carries the run's budget, workers and sampling tuple, so the
// searches sample the same way the evaluation estimators do. The top of
// each k sweep sits near the feasibility edge at this graph scale; extra
// trials and a wider sigma range keep the randomized search from flaking
// there.
func (c Config) searchParams(k int, eps float64, seed uint64) core.Params {
	return core.Params{
		K: k, Epsilon: eps, Samples: c.Samples, Seed: seed, Workers: c.Workers,
		SamplingMode: c.SamplingMode, TargetRSE: c.TargetRSE, MaxSamples: c.MaxSamples,
		Attempts: 8, MaxDoublings: 10,
	}
}

// ctx returns the run's cancellation context, Background when unset.
func (c Config) ctx() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

// Datasets returns the evaluation datasets for this configuration: the
// scaled DBLP/BRIGHTKITE/PPI stand-ins, or miniatures in Quick mode.
func (c Config) Datasets() []gen.Dataset {
	if !c.Quick {
		return gen.Datasets()
	}
	return quickDatasets()
}

// quickDatasets are miniature versions of the three datasets preserving
// the topology family and probability profile, for fast tests and benches.
func quickDatasets() []gen.Dataset {
	return []gen.Dataset{
		{
			Name: "dblp-q", PaperName: "DBLP", PaperNodes: 824774,
			PaperEdges: 5566096, PaperMeanP: 0.46, PaperEps: 1e-4,
			Nodes: 400, Epsilon: 0.02, Ks: []int{5, 8, 10, 14, 18},
			Build: func(rng *rand.Rand) (*uncertain.Graph, error) {
				pa := gen.DiscreteProbs(
					[]float64{0.13, 0.28, 0.46, 0.64, 0.80},
					[]float64{0.15, 0.23, 0.27, 0.22, 0.13},
				)
				return gen.BarabasiAlbert(400, 3, pa, rng)
			},
		},
		{
			Name: "brightkite-q", PaperName: "BRIGHTKITE", PaperNodes: 58228,
			PaperEdges: 214078, PaperMeanP: 0.29, PaperEps: 1e-3,
			Nodes: 300, Epsilon: 0.03, Ks: []int{5, 8, 10, 14, 18},
			Build: func(rng *rand.Rand) (*uncertain.Graph, error) {
				return gen.BarabasiAlbert(300, 2, gen.SmallProbs(0.29), rng)
			},
		},
		{
			Name: "ppi-q", PaperName: "PPI", PaperNodes: 12420,
			PaperEdges: 397309, PaperMeanP: 0.29, PaperEps: 1e-2,
			Nodes: 200, Epsilon: 0.05, Ks: []int{5, 8, 10, 14, 18},
			Build: func(rng *rand.Rand) (*uncertain.Graph, error) {
				return gen.BarabasiAlbert(200, 8, gen.UniformProbs(0.02, 0.56), rng)
			},
		},
	}
}

// BuildDataset materializes one dataset deterministically from the
// configured seed.
func (c Config) BuildDataset(d gen.Dataset) (*uncertain.Graph, error) {
	rng := rand.New(rand.NewPCG(c.Seed, hashName(d.Name)))
	return d.Build(rng)
}

func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
