// Package reliability implements the paper's reliability machinery under
// possible-world semantics: Monte Carlo estimators for two-terminal
// reliability (Definition 1), the reliability-discrepancy utility-loss
// metric (Definition 2), and the edge/vertex reliability-relevance measures
// with the sample-reuse estimator of Algorithm 2.
package reliability

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/obs"
	"chameleon/internal/uncertain"
	"chameleon/internal/unionfind"
)

// DefaultSamples is the Monte Carlo sample count the paper uses throughout
// ("1000 usually suffices to achieve accuracy convergence" [30]).
const DefaultSamples = 1000

// DefaultMaxSamples caps adaptive sequential sampling when MaxSamples is
// left zero: generous enough that well-behaved estimates converge long
// before it, small enough that a pathological stream (near-zero mean)
// cannot run away.
const DefaultMaxSamples = 16384

// sampleChunk is the estimators' unit of work handed to a worker: 64
// consecutive sample indices, matching one bitset word so chunk
// boundaries align with word boundaries in any transposed layout, and
// coarse enough that the atomic claim is negligible against the
// per-world sampling cost.
const sampleChunk = 64

// adaptiveMinSamples is the floor before the sequential stopping rule may
// fire: below two chunks the Welford variance estimate is too noisy to
// trust a relative-standard-error test (early small-sample flukes would
// stop genuinely unconverged streams).
const adaptiveMinSamples = 2 * sampleChunk

// Estimator carries the Monte Carlo configuration shared by the
// estimators in this package.
type Estimator struct {
	// Samples is the number of possible worlds drawn (N) in fixed-budget
	// mode. Zero means DefaultSamples. With TargetRSE set it is ignored
	// (the budget becomes MaxSamples).
	Samples int
	// Seed makes estimates reproducible. The same seed always draws the
	// same worlds.
	Seed uint64
	// Workers caps sampling parallelism. Zero means GOMAXPROCS.
	Workers int
	// Obs, when non-nil, receives Monte Carlo metrics: worlds sampled,
	// per-worker sample counts and per-estimator wall-time histograms.
	Obs *obs.Observer
	// Cache, when non-nil, memoizes sampled component labels across
	// estimator calls, keyed by (graph identity, graph version, samples,
	// seed, sampling mode). Safe to share between estimators.
	Cache *LabelCache
	// Mode selects the world-drawing strategy (default
	// uncertain.SampleIndependent). All modes share per-world marginals;
	// the variance-reduced ones change how worlds relate to each other
	// (antithetic, stratified) or to a second graph's worlds (coupled).
	Mode uncertain.SamplingMode
	// TargetRSE, when positive, switches the estimator to adaptive
	// sequential stopping: worlds are drawn in sampleChunk-sized chunks
	// until the per-world statistic's relative standard error drops to the
	// target (or MaxSamples is reached). The effective sample count is then
	// data-dependent; callers divide by the accumulator count rather than
	// Samples. Zero keeps the fixed budget.
	TargetRSE float64
	// MaxSamples caps the adaptive mode's total draw. Zero means
	// DefaultMaxSamples. Ignored without TargetRSE.
	MaxSamples int
	// Ctx, when non-nil, cancels sampling cooperatively: workers stop
	// claiming chunks (and the serial loop stops drawing) at the next
	// sampleChunk boundary once the context is done. A cancelled call
	// still returns — with a value computed from the partial sample set,
	// which is statistically meaningless — so callers that set Ctx MUST
	// check Ctx.Err() after every estimator call and discard the result
	// when it is non-nil. Nil means no cancellation, and the hot loop pays
	// only a nil test per chunk.
	Ctx context.Context
}

// cancelled reports whether the estimator's context is done. One nil test
// on the no-context fast path.
func (e Estimator) cancelled() bool {
	return e.Ctx != nil && e.Ctx.Err() != nil
}

// Check rejects a sampling configuration the fields above do not define:
// a negative budget or cap, a target RSE outside [0,1), or a cap without
// the adaptive target it bounds. Callers building an Estimator from user
// input run it once, before any sampling.
func (e Estimator) Check() error {
	switch {
	case e.Samples < 0:
		return fmt.Errorf("reliability: samples must be >= 0, got %d", e.Samples)
	case !(e.TargetRSE >= 0 && e.TargetRSE < 1):
		return fmt.Errorf("reliability: target_rse must be in [0,1), got %v", e.TargetRSE)
	case e.MaxSamples < 0:
		return fmt.Errorf("reliability: max_samples must be >= 0, got %d", e.MaxSamples)
	case e.MaxSamples > 0 && e.TargetRSE == 0:
		return fmt.Errorf("reliability: max_samples requires target_rse")
	}
	return nil
}

func (e Estimator) samples() int {
	if e.Samples <= 0 {
		return DefaultSamples
	}
	return e.Samples
}

// adaptive reports whether sequential stopping is enabled.
func (e Estimator) adaptive() bool { return e.TargetRSE > 0 }

func (e Estimator) maxSamples() int {
	if e.MaxSamples <= 0 {
		return DefaultMaxSamples
	}
	return e.MaxSamples
}

// budget is the largest sample count a call may draw: the fixed N, or the
// adaptive cap. The label matrices are sized by it and truncated to
// effSamples afterwards.
func (e Estimator) budget() int {
	if e.adaptive() {
		return e.maxSamples()
	}
	return e.samples()
}

// effSamples is the number of worlds that actually fed the estimate: the
// accumulator count in adaptive mode (the counted prefix is always
// contiguous from index 0), the configured N otherwise. Clamped to >= 1 so
// cancelled adaptive calls — whose results are discarded anyway — never
// divide by zero.
func (e Estimator) effSamples(w obs.Welford) int {
	if e.adaptive() {
		if n := int(w.Count()); n > 0 {
			return n
		}
		return 1
	}
	return e.samples()
}

func (e Estimator) workers() int {
	if e.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.Workers
}

// streamFor derives the PCG stream constant for sample i; with Seed it
// fully determines the RNG state that draws world i.
func (e Estimator) streamFor(i int) uint64 {
	return uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
}

// rngFor derives an independent deterministic RNG for sample i. The scratch
// fast path reproduces the exact same state via pcg.Seed(e.Seed,
// e.streamFor(i)) without the rand.Rand allocation.
func (e Estimator) rngFor(i int) *rand.Rand {
	return rand.New(rand.NewPCG(e.Seed, e.streamFor(i)))
}

// timeOp records one completed estimator operation: its wall time into a
// per-operation latency instrument (mc.latency.<op>, an HDR histogram
// whose p50/p99/p999 hold across the microsecond-to-minute range — the
// old fixed-bucket mc.seconds.* histograms clamped fast-op quantiles to
// the largest finite bound) and an invocation counter. Call it deferred
// with the operation's start time; with Obs nil it costs one pointer
// test.
func (e Estimator) timeOp(name string, start time.Time) {
	if e.Obs == nil {
		return
	}
	reg := e.Obs.Registry()
	reg.Counter("mc.ops." + name).Inc()
	reg.Latency("mc.latency." + name).Observe(time.Since(start))
}

// scratch is one worker's reusable Monte Carlo state: the PCG that is
// re-seeded per sample, the world the sampler fills in place, and the
// union-find structure recycled across worlds. Pooled so steady-state
// sampling performs zero allocations. A paired run draws the second
// graph's world into pair, which stays attached across pool round trips.
// worker is the index, below Estimator.workers(), of the worker running
// the current run on this scratch: fn may keep per-worker sums by it.
type scratch struct {
	pcg    rand.PCG
	world  uncertain.World
	dsu    *unionfind.DSU
	pair   *scratch
	worker int
}

// components returns the component structure of the scratch's current
// world, reusing the scratch's union-find storage.
func (sc *scratch) components() *unionfind.DSU {
	sc.dsu = sc.world.ComponentsInto(sc.dsu)
	return sc.dsu
}

// componentsPairs additionally returns the world's connected-pair count,
// computed incrementally inside the union loop.
func (sc *scratch) componentsPairs() (*unionfind.DSU, int64) {
	d, pairs := sc.world.ComponentsPairsInto(sc.dsu)
	sc.dsu = d
	return d, pairs
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// drawFunc draws world i of the sampler into the scratch under the given
// base seed. Every draw is keyed by the sample index alone — re-seeded
// streams or stateless hashes — so indices can be drawn in any order by
// any scheduling, which is what makes worker counts, chunked adaptive
// stopping and checkpoint resume all produce identical worlds.
type drawFunc func(seed uint64, s *uncertain.WorldSampler, sc *scratch, i int)

func drawIndependent(seed uint64, s *uncertain.WorldSampler, sc *scratch, i int) {
	sc.pcg.Seed(seed, uint64(i)*0x9e3779b97f4a7c15+0x2545f4914f6cdd1d)
	s.SampleInto(&sc.world, &sc.pcg)
}

// Antithetic pairing: indices 2j and 2j+1 re-seed the SAME stream (keyed
// by the pair index j), the odd one drawing complemented uniforms. Pairs
// never straddle chunk boundaries (sampleChunk is even), and each index
// re-seeds from scratch, so scheduling cannot split or reorder a pair's
// draws.
func drawAntithetic(seed uint64, s *uncertain.WorldSampler, sc *scratch, i int) {
	sc.pcg.Seed(seed, uint64(i>>1)*0x9e3779b97f4a7c15+0x2545f4914f6cdd1d)
	s.SampleIntoAntithetic(&sc.world, &sc.pcg, i&1 == 1)
}

func drawStratified(seed uint64, s *uncertain.WorldSampler, sc *scratch, i int) {
	s.SampleIntoStratified(&sc.world, seed, i)
}

func drawCoupled(seed uint64, s *uncertain.WorldSampler, sc *scratch, i int) {
	s.SampleIntoCoupled(&sc.world, seed, i)
}

// drawWorldStream draws world i from PCG(seed, i+1), the stream
// ForEachWorld's callers have always sampled, leaving sc.pcg just past
// the draw.
func drawWorldStream(seed uint64, s *uncertain.WorldSampler, sc *scratch, i int) {
	sc.pcg.Seed(seed, uint64(i)+1)
	s.SampleInto(&sc.world, &sc.pcg)
}

// drawFn selects the world-drawing kernel for the configured mode as a
// package-level function (no closure allocation).
func (e Estimator) drawFn() drawFunc {
	switch e.Mode {
	case uncertain.SampleAntithetic:
		return drawAntithetic
	case uncertain.SampleStratified:
		return drawStratified
	case uncertain.SampleCoupled:
		return drawCoupled
	default:
		return drawIndependent
	}
}

// pairSeed is the seed a paired run uses to draw the SECOND graph's
// worlds. The hashed modes keep the base seed: index-aligned draws then
// reuse the same uniform per edge-endpoint pair, which IS the
// common-random-numbers coupling. The stream modes decorrelate the second
// graph so the classical independent two-sample analysis applies.
func (e Estimator) pairSeed() uint64 {
	switch e.Mode {
	case uncertain.SampleStratified, uncertain.SampleCoupled:
		return e.Seed
	default:
		return e.Seed ^ 0x6c62272e07bb0142
	}
}

// workerNames pre-renders the per-worker counter names so the sampling
// loop never formats strings.
var workerNames = func() (names [64]string) {
	for i := range names {
		names[i] = fmt.Sprintf("mc.worker.%02d.samples", i)
	}
	return
}()

func workerName(w int) string {
	if w < len(workerNames) {
		return workerNames[w]
	}
	return fmt.Sprintf("mc.worker.%02d.samples", w)
}

// stopRSE is the sequential stopping rule: enough samples for the variance
// estimate to be trustworthy, and relative standard error at or below the
// target. A zero-variance stream (constant statistic) stops at the floor —
// its RelStdErr is exactly 0.
func stopRSE(w obs.Welford, target float64) bool {
	return w.Count() >= adaptiveMinSamples && w.RelStdErr() <= target
}

// tally accumulates fn's integer per-world statistic: its exact sum, from
// which the estimates are read, and its Welford moments, which drive the
// stopping rule and the quality streams. An integer sum is the same in any
// order, so an estimate cannot depend on which worker drew which world.
// int64 cannot wrap while the absolute values summed stay below 2^63: a
// connected-pair count is below n²/2, so N·n²/2 < 2^63 suffices (at n =
// 825k that is N < 2.7·10^7).
type tally struct {
	obs.Welford
	sum int64
}

func (t *tally) add(x int64) {
	t.Add(float64(x))
	t.sum += x
}

func (t *tally) merge(o tally) {
	t.Merge(o.Welford)
	t.sum += o.sum
}

// meanOf is the estimate an exact integer sum gives over n worlds.
// float64(sum) equals the ascending float64 sum of the same integers while
// that sum stays below 2^53, so the value is the one a sequential float
// scan gives.
func meanOf(sum int64, n int) float64 { return float64(sum) / float64(n) }

// forEachSample runs fn(sampleIndex, scratch) over sampled worlds of g and
// returns the tally of fn's per-world statistic (the value whose mean the
// caller is estimating). When fn is called, sc.world holds
// world sampleIndex of g; fn may use sc.components() and must not retain
// references into the scratch past its return. fn must be safe for
// concurrent invocation on distinct indices.
//
// With h non-nil the worlds are PAIRED: sc.pair.world additionally holds
// world sampleIndex of h, and fn's statistic is typically a difference.
// Under the hashed modes (coupled, stratified) both graphs draw from the
// SAME seed, so every edge the graphs share receives identical uniforms at
// every index — the common-random-numbers coupling that collapses the
// variance of difference estimates. Under the stream modes h draws from a
// decorrelated seed (pairSeed), giving the classical independent
// two-sample estimator. Each drawn pair counts as two worlds.
//
// Worlds are scheduled by run in chunks of sampleChunk indices. Estimates
// divide the tally's exact sum by effSamples; the moments feed the quality
// streams (see recordQuality).
func (e Estimator) forEachSample(g, h *uncertain.Graph, fn func(i int, sc *scratch) int64) tally {
	r := e.newRun(g, h, fn)
	return e.run(&r)
}

// newRun sets up forEachSample's run over [0, budget) of g's worlds,
// paired with h's when h is non-nil.
func (e Estimator) newRun(g, h *uncertain.Graph, fn func(i int, sc *scratch) int64) mcRun {
	r := mcRun{fn: fn, draw: e.drawFn(), g: g.Sampler(), seed: e.Seed, limit: e.budget(), size: sampleChunk, worlds: 1}
	if h != nil {
		r.h, r.seedH, r.worlds = h.Sampler(), e.pairSeed(), 2
	}
	return r
}

// ForEachWorld calls fn on worlds 0..n-1 of g (n > 0), world i drawn from
// PCG(seed, i+1), on workers goroutines (0 means GOMAXPROCS) of the same
// scheduler as the estimators. When fn is called, w holds world i and pcg
// is the stream just past the draw, so fn may go on drawing from it.
// Worlds are claimed one at a time: callers compute a costly statistic on
// each of few worlds, where 64-world chunks would leave workers idle. fn
// must be safe for concurrent invocation on distinct indices and must not
// retain w or pcg past its return.
func ForEachWorld(g *uncertain.Graph, seed uint64, n, workers int, fn func(i int, w *uncertain.World, pcg *rand.PCG)) {
	r := mcRun{draw: drawWorldStream, g: g.Sampler(), seed: seed, limit: n, size: 1, worlds: 1,
		fn: func(i int, sc *scratch) int64 {
			fn(i, &sc.world, &sc.pcg)
			return 0
		}}
	Estimator{Workers: workers}.run(&r)
}

// run is the package's one Monte Carlo scheduler. Work is cut into chunks
// of r.size consecutive indices. A round of chunks is claimed off one
// atomic cursor by the workers, each drawing into a pooled scratch (the
// steady state allocates nothing), and each chunk's accumulator lands in
// its own slot. The slots are then merged IN CHUNK-INDEX ORDER, so the
// returned accumulator is bit-identical for any worker count. The fixed
// budget is a single round spanning all of it. In adaptive mode
// (TargetRSE > 0) rounds are one chunk per worker, and the stopping rule
// (stopRSE) is tested on the merged prefix after every chunk: the stop
// point is a function of the chunk-order prefix alone, and the
// accumulator's count is the effective N. Chunks a round drew past the
// stopping point are counted as drawn but not merged, so the counted
// prefix is always contiguous; r.drawn records how many indices were
// drawn, merged or not. One worker runs the same chunks in the same order
// inline, merging each as it finishes, with no goroutine and no slot
// array. The run covers the chunks of [r.start, r.limit).
//
// Cancellation (Estimator.Ctx) is cooperative at chunk boundaries: no
// chunk is started once the context is done, and a started chunk runs to
// its end. The merged prefix stops at the first chunk that did not run.
// The mc.worlds_sampled and per-worker counters record every world
// actually drawn, merged or not, so the sample-balance invariant
// sum(mc.worker.*) == mc.worlds_sampled holds on interrupted runs too.
// Metrics go through the nil-safe registry path: a nil Obs yields a nil
// registry whose instruments drop updates.
func (e Estimator) run(r *mcRun) tally {
	reg := e.Obs.Registry()
	lo, hi := r.start/r.size, (r.limit+r.size-1)/r.size
	workers := min(e.workers(), hi-lo)
	var stat tally
	var drawn int64
	if workers == 1 {
		sc := r.scratch(0)
		for c := lo; c < hi && !e.cancelled(); c++ {
			part := r.chunk(sc, c)
			drawn += part.Count()
			if e.fold(&stat, part) {
				break
			}
		}
		scratchPool.Put(sc)
		reg.Counter(workerName(0)).Add(r.worlds * drawn)
	} else {
		perRound := hi - lo
		if e.adaptive() {
			perRound = workers
		}
		parts := make([]tally, perRound)
		done := false
		for first := lo; first < hi && !done; first += perRound {
			round := parts[:min(perRound, hi-first)]
			r.round(e, workers, first, round)
			for _, part := range round {
				drawn += part.Count()
			}
			for _, part := range round {
				// A chunk with no draws was never started (cancellation): the
				// merged prefix ends there.
				if done = part.Count() == 0 || e.fold(&stat, part); done {
					break
				}
			}
		}
	}
	r.drawn = int(drawn)
	reg.Counter("mc.worlds_sampled").Add(r.worlds * drawn)
	if e.adaptive() {
		e.recordAdaptive(stat.Welford, r.drawn)
	}
	return stat
}

// fold merges the next chunk's accumulator into the chunk-order prefix and
// reports whether the adaptive stopping rule fires on the result.
func (e Estimator) fold(stat *tally, part tally) bool {
	stat.merge(part)
	return e.adaptive() && stopRSE(stat.Welford, e.TargetRSE)
}

// mcRun holds one scheduled run's inputs, read-only once the workers
// start.
type mcRun struct {
	fn          func(i int, sc *scratch) int64
	draw        drawFunc
	g, h        *uncertain.WorldSampler
	seed, seedH uint64
	start       int   // first index, a multiple of size
	limit       int   // indices run over [start, limit)
	size        int   // indices per chunk
	worlds      int64 // worlds drawn per index: 2 when paired
	drawn       int   // set by run: the indices it drew, merged or not
}

// scratch checks a scratch out of the pool for worker w, with the second
// world attached when the run is paired.
func (r *mcRun) scratch(w int) *scratch {
	sc := scratchPool.Get().(*scratch)
	if r.h != nil && sc.pair == nil {
		sc.pair = new(scratch)
	}
	sc.worker = w
	return sc
}

// chunk draws every index of chunk c into sc in order, calls fn on each,
// and returns the chunk's accumulator.
func (r *mcRun) chunk(sc *scratch, c int) tally {
	var part tally
	end := min((c+1)*r.size, r.limit)
	for i := c * r.size; i < end; i++ {
		r.draw(r.seed, r.g, sc, i)
		if r.h != nil {
			r.draw(r.seedH, r.h, sc.pair, i)
		}
		part.add(r.fn(i, sc))
	}
	return part
}

// round runs chunks first, first+1, ... on workers goroutines that claim
// them off one atomic cursor, writing chunk first+j's accumulator to
// parts[j]. A worker stops claiming once the estimator's context is done,
// so the chunks that ran are a prefix of the round; the slots of the rest
// are left empty. Each worker adds the worlds it drew to its
// mc.worker.NN.samples counter.
func (r mcRun) round(e Estimator, workers, first int, parts []tally) {
	reg := e.Obs.Registry()
	clear(parts)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := r.scratch(w)
			var drawn int64
			for !e.cancelled() {
				j := int(cursor.Add(1)) - 1
				if j >= len(parts) {
					break
				}
				parts[j] = r.chunk(sc, first+j)
				drawn += parts[j].Count()
			}
			scratchPool.Put(sc)
			reg.Counter(workerName(w)).Add(r.worlds * drawn)
		}(w)
	}
	wg.Wait()
}

// recordAdaptive publishes one adaptive call's closed-loop outcome: the
// effective sample count, worlds actually drawn (including final-round
// overdraw), achieved RSE, the savings factor against the cap, and the
// stop reason (converged vs capped — the distinction the old
// mc.quality.undersampled counter could not make). Cancelled calls record
// only the cancellation: their statistics cover a truncated stream.
func (e Estimator) recordAdaptive(w obs.Welford, drawn int) {
	if e.Obs == nil {
		return
	}
	reg := e.Obs.Registry()
	if e.cancelled() {
		reg.Counter("mc.adaptive.cancelled").Inc()
		return
	}
	reg.Gauge("mc.adaptive.last_samples").Set(float64(w.Count()))
	reg.Gauge("mc.adaptive.last_drawn").Set(float64(drawn))
	rse := w.RelStdErr()
	if math.IsInf(rse, 1) {
		rse = math.MaxFloat64
	}
	reg.Gauge("mc.adaptive.last_rse").Set(rse)
	if w.Count() > 0 {
		reg.Gauge("mc.adaptive.last_savings").Set(float64(e.maxSamples()) / float64(w.Count()))
	}
	if stopRSE(w, e.TargetRSE) {
		reg.Counter("mc.adaptive.converged").Inc()
	} else {
		reg.Counter("mc.adaptive.capped").Inc()
	}
}

// UndersampledRSE is the relative-standard-error threshold above which an
// estimate counts as under-sampled: the configured Monte Carlo budget left
// more than 5% relative noise on the estimate, so downstream consumers
// (the σ-search, the figure sweeps) are operating on a shaky number.
const UndersampledRSE = 0.05

// recordQuality publishes the statistical health of one completed estimate
// into the registry: the pooled per-sample stream (mean/variance/CI across
// every call), last-call standard-error and CI gauges, and the relative-SE
// convergence gauge. In fixed-budget mode, estimates whose relative SE
// exceeds UndersampledRSE bump the mc.quality.undersampled counter and
// emit a debug log, flagging σ-search steps and sweep cells that ran
// under-budgeted. In adaptive mode the budget is the closed loop itself,
// so the flag is replaced by per-operation stop-reason counters
// (mc.adaptive.<op>.converged / .capped) keyed to the ACHIEVED RSE against
// the configured target. Free (one pointer test) with Obs nil; estimates
// with no spread information (fewer than two samples) record nothing.
//
// The accumulator must hold per-WORLD statistics (one observation per
// sampled world, the forEachSample contract) so that stderr is the Monte
// Carlo error of the estimate. Per-pair discrepancy values do not qualify
// — see recordPairSpread.
func (e Estimator) recordQuality(op string, w obs.Welford) {
	e.recordStream("mc.quality.", op, w, true)
}

// recordPairSpread publishes the dispersion of per-PAIR values under
// mc.pairspread.<op>. Every pair is evaluated against the SAME N sampled
// worlds, so the values are correlated and the stream's stderr/CI are NOT
// the Monte Carlo error of the estimate: for Discrepancy (all pairs) they
// are a pure dispersion diagnostic, and for SampledPairDiscrepancy they
// bound only the pair-sampling error conditional on the drawn worlds,
// excluding world-sampling noise. These streams therefore never feed the
// mc.quality.undersampled convergence flag.
func (e Estimator) recordPairSpread(op string, w obs.Welford) {
	e.recordStream("mc.pairspread.", op, w, false)
}

// recordStream merges the accumulator into the quality stream prefix+op and
// sets the last-call gauges. The gauge names carry a "last_" prefix so
// their sanitized /metrics forms (mc_quality_X_last_stderr, ...) never
// collide with the stream's own pooled expansion (mc_quality_X_stderr,
// ...) — a collision would duplicate metric families and abort Prometheus
// scrapes. convergence gates the under-sampled flag (fixed budget) or the
// per-op stop-reason counters (adaptive).
func (e Estimator) recordStream(prefix, op string, w obs.Welford, convergence bool) {
	if e.Obs == nil || w.Count() < 2 || e.cancelled() {
		// A cancelled estimate's accumulator covers a truncated sample set;
		// recording it would pollute the quality streams of the final
		// (interrupted) snapshot with bogus convergence data.
		return
	}
	name := prefix + op // built past the nil check: no allocation without an observer
	reg := e.Obs.Registry()
	reg.Quality(name).Merge(w)
	reg.Gauge(name + ".last_stderr").Set(w.StdErr())
	lo, hi := w.CI95()
	reg.Gauge(name + ".last_ci95_lo").Set(lo)
	reg.Gauge(name + ".last_ci95_hi").Set(hi)
	rse := w.RelStdErr()
	reg.Gauge(name + ".last_rse").Set(rse)
	if !convergence {
		return
	}
	if e.adaptive() {
		// Closed loop: report the achieved RSE against the configured
		// target and the stop reason, per operation. A capped stream is the
		// adaptive analogue of under-sampled — the cap bound the budget
		// before the target was met — and is distinguishable from a
		// converged one, which the old undersampled counter never was.
		if rse <= e.TargetRSE {
			reg.Counter("mc.adaptive." + op + ".converged").Inc()
		} else {
			reg.Counter("mc.adaptive." + op + ".capped").Inc()
			e.Obs.Debug("mc: adaptive estimate capped before target RSE",
				"op", op, "rse", rse, "target", e.TargetRSE, "samples", w.Count())
		}
		return
	}
	if rse > UndersampledRSE {
		reg.Counter("mc.quality.undersampled").Inc()
		e.Obs.Debug("mc: estimate under-sampled",
			"op", op, "rse", rse, "samples", w.Count(), "stderr", w.StdErr())
	}
}

// SampleLabels draws worlds and returns their component-label vectors:
// labels[i][v] is the component representative of vertex v in world i. In
// adaptive mode the returned slice is truncated to the effective sample
// count (the per-world statistic driving the stopping rule is the world's
// connected-pair count).
func (e Estimator) SampleLabels(g *uncertain.Graph) [][]int32 {
	labels := make([][]int32, e.budget())
	nv := g.NumNodes()
	stat := e.forEachSample(g, nil, func(i int, sc *scratch) int64 {
		d, pairs := sc.componentsPairs()
		row := make([]int32, nv)
		for v := range row {
			row[v] = int32(d.Find(v))
		}
		labels[i] = row
		return pairs
	})
	if e.adaptive() {
		labels = labels[:e.effSamples(stat.Welford)]
	}
	return labels
}

// ExpectedConnectedPairs estimates E[cc(G)]: the expected number of
// connected unordered vertex pairs.
func (e Estimator) ExpectedConnectedPairs(g *uncertain.Graph) float64 {
	defer e.timeOp("ExpectedConnectedPairs", time.Now())
	if ls := e.cachedLabels(g); ls != nil {
		var stat tally
		for _, c := range ls.cc {
			stat.add(c)
		}
		e.recordQuality("ExpectedConnectedPairs", stat.Welford)
		return meanOf(stat.sum, len(ls.cc))
	}
	stat := e.forEachSample(g, nil, func(i int, sc *scratch) int64 {
		_, pairs := sc.componentsPairs()
		return pairs
	})
	e.recordQuality("ExpectedConnectedPairs", stat.Welford)
	return meanOf(stat.sum, e.effSamples(stat.Welford))
}

// PairReliability estimates R_{u,v}(G) (Definition 1): the probability that
// u and v are connected. With a Cache attached the estimate is read off
// the memoized component labels — identical worlds, identical labels, so
// the value matches the uncached fixed-budget path bit-for-bit, and a
// warm cache answers in O(N) integer label comparisons without sampling.
// The hits are 0/1 per world, so the quality stream is recorded from
// their count in closed form.
func (e Estimator) PairReliability(g *uncertain.Graph, u, v uncertain.NodeID) float64 {
	defer e.timeOp("PairReliability", time.Now())
	if e.Cache != nil {
		ls := e.sampleLabelsT(g)
		ru, rv := ls.row(int(u)), ls.row(int(v))
		rv = rv[:len(ru)]
		hits := 0
		for s, l := range ru {
			if l == rv[s] {
				hits++
			}
		}
		n := len(ru)
		e.recordQuality("PairReliability", obs.BernoulliWelford(int64(n), int64(hits)))
		if n == 0 {
			n = 1 // cancelled before any world: caller discards via Ctx.Err()
		}
		return float64(hits) / float64(n)
	}
	stat := e.forEachSample(g, nil, func(i int, sc *scratch) int64 {
		if sc.components().Connected(int(u), int(v)) {
			return 1
		}
		return 0
	})
	e.recordQuality("PairReliability", stat.Welford)
	return meanOf(stat.sum, e.effSamples(stat.Welford))
}

// ReliabilityVector estimates R_{src,v} for every v against a single
// source; handy for k-nearest-neighbor style queries (cf. [30]). It counts
// matches in the transposed labels; with a Cache attached those are
// memoized, so repeated k-NN queries against one graph sample it exactly
// once, and the cached set's hub planes replace most label compares with
// popcounts. The counts are integers, so every path gives the same values.
func (e Estimator) ReliabilityVector(g *uncertain.Graph, src uncertain.NodeID) []float64 {
	defer e.timeOp("ReliabilityVector", time.Now())
	ls := e.sampleLabelsT(g)
	if e.Cache != nil {
		ls.buildPlanes(g)
	}
	out := make([]float64, g.NumNodes())
	n := ls.samples
	if n == 0 {
		n = 1 // cancelled before any world: caller discards via Ctx.Err()
	}
	ls.reliabilities(int(src), out, 1/float64(n))
	out[src] = 1
	e.releaseLabels(ls)
	return out
}
