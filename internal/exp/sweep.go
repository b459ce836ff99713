package exp

import (
	"fmt"
	"sync/atomic"
	"time"

	"chameleon/internal/core"
	"chameleon/internal/gen"
	"chameleon/internal/metrics"
	"chameleon/internal/obs"
	"chameleon/internal/reliability"
	"chameleon/internal/repan"
	"chameleon/internal/uncertain"
)

// Methods is the paper's comparison set (Table II), in reporting order.
var Methods = []string{"RSME", "RS", "ME", "Rep-An"}

// sweepProgress is the sweep-cell cursor behind the run.progress /
// run.eta_seconds gauges: total is the grid size claimed by the outermost
// entry point (SweepAll claims the full dataset grid before per-dataset
// Sweeps can claim just theirs), done counts finished cells — restored
// ones included, since replaying them is work the run no longer has to do.
type sweepProgress struct {
	total atomic.Int64
	done  atomic.Int64
}

// claimTotal installs the grid size if no outer scope has claimed one yet.
func (p *sweepProgress) claimTotal(total int) {
	if p != nil {
		p.total.CompareAndSwap(0, int64(total))
	}
}

// step marks one cell finished and republishes the gauges. The ETA is the
// mean observed cell cost (the exp.cell_seconds latency) times the cells
// left; restored cells cost ~nothing, so the mean self-corrects as the
// sweep replays or computes.
func (p *sweepProgress) step(reg *obs.Registry) {
	if p == nil {
		return
	}
	// The cell count advances unconditionally — window() feeds the next
	// cell's Params whether or not metrics are being collected.
	done, total := p.done.Add(1), p.total.Load()
	if reg == nil || total <= 0 {
		return
	}
	if done > total {
		done = total
	}
	reg.Gauge(obs.ProgressGauge).Set(float64(done) / float64(total))
	meanNS := reg.Latency("exp.cell_seconds").Snapshot().Mean()
	reg.Gauge(obs.ETAGauge).Set(meanNS / 1e9 * float64(total-done))
}

// window returns the [base, base+span) slice of the progress bar the next
// cell occupies, for core.Params so the σ-search inside the cell advances
// the sweep-wide bar smoothly instead of saw-toothing its own 0→1.
func (p *sweepProgress) window() (base, span float64) {
	if p == nil {
		return 0, 0
	}
	total := p.total.Load()
	if total <= 0 {
		return 0, 0
	}
	return float64(p.done.Load()) / float64(total), 1 / float64(total)
}

// Run is one (dataset, method, k) cell of the evaluation sweep, carrying
// every metric the figures need.
type Run struct {
	Dataset string
	Method  string
	PaperK  int // k at paper scale
	K       int // k at dataset scale

	// Privacy outcome.
	EpsilonTilde float64
	Sigma        float64

	// Utility (Figures 8-11): relative errors against the original graph.
	RelDiscrepancy float64 // Fig 4/8: avg reliability discrepancy ratio
	AvgDegreeErr   float64 // Fig 9
	AvgDistanceErr float64 // Fig 10
	ClusteringErr  float64 // Fig 11
	EffDiameterErr float64 // supplementary node-separation metric
	MaxDegreeErr   float64 // supplementary degree metric
	Elapsed        time.Duration
	AnonElapsed    time.Duration // anonymization (sigma search) share of Elapsed
	EvalElapsed    time.Duration // utility-measurement share of Elapsed
	Failed         bool          // true when no (k,eps)-obfuscation was found
	FailReason     string        // error text when Failed
}

// Baseline summarizes the original graph's metric values for one dataset.
type Baseline struct {
	Dataset     string
	Nodes       int
	Edges       int
	MeanProb    float64
	Epsilon     float64
	AvgDegree   float64
	MaxDegree   float64
	AvgDistance float64
	EffDiameter float64
	Clustering  float64
}

// MeasureBaseline computes the original-graph metric values.
func (c Config) MeasureBaseline(d gen.Dataset, g *uncertain.Graph) Baseline {
	c = c.withDefaults()
	mo := metrics.Options{Samples: c.MetricSamples, Seed: c.Seed, Workers: c.Workers}
	dist := mo.Distances(g)
	return Baseline{
		Dataset:     d.Name,
		Nodes:       g.NumNodes(),
		Edges:       g.NumEdges(),
		MeanProb:    g.MeanProb(),
		Epsilon:     d.Epsilon,
		AvgDegree:   metrics.AverageDegree(g),
		MaxDegree:   mo.MaxDegree(g),
		AvgDistance: dist.AverageDistance,
		EffDiameter: dist.EffectiveDiameter,
		Clustering:  mo.ClusteringCoefficient(g),
	}
}

// RunCell anonymizes one (dataset, method, k) cell and measures all the
// figure metrics against the original graph and its baseline values.
func (c Config) RunCell(d gen.Dataset, g *uncertain.Graph, base Baseline, method string, paperK int) Run {
	c = c.withDefaults()
	k := d.KScale(paperK)
	if cached, ok := c.Cells.Get(d.Name, method, paperK); ok {
		// Cell seeds depend only on (config seed, method, k), so a stored
		// cell is exactly what recomputing it would produce.
		c.Obs.Registry().Counter("exp.cells_restored").Inc()
		c.Obs.Debug("exp: cell restored from sweep checkpoint",
			"dataset", d.Name, "method", method, "k", k)
		c.prog.step(c.Obs.Registry())
		return cached
	}
	run := Run{Dataset: d.Name, Method: method, PaperK: paperK, K: k}
	start := time.Now()
	cell := obs.NewSpan("sweep.cell")
	cell.SetAttr("dataset", d.Name)
	cell.SetAttr("method", method)
	cell.SetAttr("k", k)
	finish := func(run *Run) {
		run.Elapsed = time.Since(start)
		cell.SetAttr("failed", run.Failed)
		cell.End()
		c.Obs.AttachSpan(cell)
		c.Obs.Registry().Counter("exp.cells").Inc()
		if run.Failed {
			c.Obs.Registry().Counter("exp.cells_failed").Inc()
		}
		c.Obs.Registry().Latency("exp.cell_seconds").Observe(run.Elapsed)
		c.Obs.Debug("exp: cell done", "dataset", d.Name, "method", method,
			"k", k, "failed", run.Failed, "anon", run.AnonElapsed,
			"eval", run.EvalElapsed, "total", run.Elapsed)
		c.prog.step(c.Obs.Registry())
		if c.ctx().Err() == nil {
			// Only genuinely finished cells are checkpointed: a cell whose
			// failure is the cancellation itself must be recomputed on
			// resume, not replayed as a failure.
			if err := c.Cells.Put(*run); err != nil {
				c.Obs.Log("exp: sweep checkpoint write failed", "error", err.Error())
			}
		}
	}

	params := c.searchParams(k, d.Epsilon, c.Seed^hashName(method)^uint64(paperK))
	params.Obs, params.Cache = c.Obs, c.cache
	params.ProgressBase, params.ProgressSpan = c.prog.window()
	var res *core.Result
	variant, err := core.ParseVariant(method)
	if err == nil {
		params.Variant = variant
		res, err = core.AnonymizeContext(c.ctx(), g, params)
	}
	run.AnonElapsed = time.Since(start)
	if res != nil {
		cell.Adopt(res.Trace)
	}
	if err != nil {
		run.Failed = true
		run.FailReason = err.Error()
		finish(&run)
		return run
	}
	run.EpsilonTilde = res.EpsilonTilde
	run.Sigma = res.Sigma
	cell.SetAttr("sigma", res.Sigma)
	cell.SetAttr("epsilon_tilde", res.EpsilonTilde)

	evalStart := time.Now()
	eval := cell.StartChild("evaluate")
	pub := res.Graph
	est := c.estimator(0, 7)
	rel, err := est.RelativeDiscrepancy(g, pub, reliability.PairSample{Pairs: c.Pairs, Seed: c.Seed + 11})
	if err == nil {
		// Evaluation truncated by cancellation yields garbage metrics; fold
		// it into the failure path (finish skips checkpointing it).
		err = c.ctx().Err()
	}
	if err != nil {
		run.Failed = true
		run.FailReason = err.Error()
		run.EvalElapsed = time.Since(evalStart)
		eval.End()
		finish(&run)
		return run
	}
	run.RelDiscrepancy = rel

	mo := metrics.Options{Samples: c.MetricSamples, Seed: c.Seed + 13, Workers: c.Workers}
	run.AvgDegreeErr = metrics.RelativeError(base.AvgDegree, metrics.AverageDegree(pub))
	run.MaxDegreeErr = metrics.RelativeError(base.MaxDegree, mo.MaxDegree(pub))
	dist := mo.Distances(pub)
	run.AvgDistanceErr = metrics.RelativeError(base.AvgDistance, dist.AverageDistance)
	run.EffDiameterErr = metrics.RelativeError(base.EffDiameter, dist.EffectiveDiameter)
	run.ClusteringErr = metrics.RelativeError(base.Clustering, mo.ClusteringCoefficient(pub))
	run.EvalElapsed = time.Since(evalStart)
	eval.End()
	finish(&run)
	return run
}

// Sweep runs the full method x k grid for one dataset.
func (c Config) Sweep(d gen.Dataset, methods []string) ([]Run, Baseline, error) {
	c = c.withDefaults()
	c.prog.claimTotal(len(methods) * len(c.PaperKs))
	g, err := c.BuildDataset(d)
	if err != nil {
		return nil, Baseline{}, err
	}
	base := c.MeasureBaseline(d, g)
	var runs []Run
	for _, method := range methods {
		for _, paperK := range c.PaperKs {
			run := c.RunCell(d, g, base, method, paperK)
			if err := c.ctx().Err(); err != nil {
				// The interrupted cell's row is partial garbage; report only
				// the cells that finished.
				return runs, base, err
			}
			runs = append(runs, run)
		}
	}
	return runs, base, nil
}

// SweepAll runs the full evaluation grid over every dataset.
func (c Config) SweepAll(methods []string) ([]Run, []Baseline, error) {
	c = c.withDefaults() // one shared label cache across all datasets
	c.prog.claimTotal(len(c.Datasets()) * len(methods) * len(c.PaperKs))
	var allRuns []Run
	var bases []Baseline
	for _, d := range c.Datasets() {
		runs, base, err := c.Sweep(d, methods)
		if err != nil {
			return nil, nil, fmt.Errorf("dataset %s: %w", d.Name, err)
		}
		allRuns = append(allRuns, runs...)
		bases = append(bases, base)
	}
	return allRuns, bases, nil
}

// Finish marks a fully completed experiment: the sweep checkpoint (if any)
// is cleared so a later invocation starts fresh instead of replaying.
func (c Config) Finish() error {
	return c.Cells.Clear()
}

// ExtractionOnlyDiscrepancy measures the reliability discrepancy caused by
// the representative-extraction step alone (Figure 4's discussion: "the
// sole representative extraction step produces high reliability errors").
func (c Config) ExtractionOnlyDiscrepancy(g *uncertain.Graph) (float64, error) {
	c = c.withDefaults()
	rep := repan.Representative(g)
	est := c.estimator(0, 7)
	disc, err := est.RelativeDiscrepancy(g, rep, reliability.PairSample{Pairs: c.Pairs, Seed: c.Seed + 11})
	if err == nil {
		err = c.ctx().Err()
	}
	return disc, err
}
