// Package core implements the Chameleon anonymization framework: the
// binary-search skeleton of Algorithm 1, the GenObf procedure of
// Algorithm 3, the reliability-sensitive edge selection (RS) and the
// anonymity-oriented max-entropy perturbation (ME), plus the ablation
// variants evaluated in the paper (Table II).
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"

	"chameleon/internal/obs"
	"chameleon/internal/reliability"
	"chameleon/internal/uncertain"
)

// Variant selects the combination of edge-selection and perturbation
// heuristics (Table II of the paper).
type Variant int

const (
	// RSME is full Chameleon: reliability-sensitive edge selection plus
	// max-entropy (anonymity-oriented) probability perturbation.
	RSME Variant = iota
	// RS uses reliability-sensitive selection with unguided (random-sign)
	// perturbation.
	RS
	// ME uses uniqueness-only selection with max-entropy perturbation.
	ME
	// Boldi is the conventional uncertainty-injection scheme of [7],
	// oblivious to reliability: uniqueness-only selection with the binary
	// injection formula. On deterministic (0/1) inputs this is exactly the
	// published algorithm; it is the obfuscator used inside Rep-An.
	Boldi
	// RepAn is the paper's baseline (Section IV): extract a deterministic
	// representative of the input (repan.Representative), then run Boldi
	// on it. The search and its checkpoints are the Boldi search over the
	// representative, so Result.Variant reports Boldi.
	RepAn
)

// variantNames is the one method-name table: String prints it and
// ParseVariant reads it.
var variantNames = [...]string{RSME: "RSME", RS: "RS", ME: "ME", Boldi: "Boldi", RepAn: "Rep-An"}

// String implements fmt.Stringer.
func (v Variant) String() string {
	if v >= 0 && int(v) < len(variantNames) {
		return variantNames[v]
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// ParseVariant is the inverse of Variant.String. The empty name means
// RSME, the default method.
func ParseVariant(name string) (Variant, error) {
	if name == "" {
		return RSME, nil
	}
	for v, n := range variantNames {
		if n == name {
			return Variant(v), nil
		}
	}
	return 0, fmt.Errorf("core: unknown method %q (want one of %s)", name, strings.Join(variantNames[:], ", "))
}

// reliabilitySensitive reports whether the variant weights selection by
// vertex reliability relevance.
func (v Variant) reliabilitySensitive() bool { return v == RSME || v == RS }

// maxEntropy reports whether the variant uses the guided (gradient-ascent)
// perturbation p~ = p + (1-2p)*r. The Boldi scheme uses the same formula —
// it is the deterministic special case — so only RS uses random-sign noise.
func (v Variant) maxEntropy() bool { return v != RS }

// Params configures one anonymization run.
type Params struct {
	// K is the obfuscation level: every non-skipped vertex must hide in an
	// entropy of at least log2(K) candidates (Definition 3).
	K int
	// Epsilon is the tolerance: the fraction of vertices allowed to stay
	// under-obfuscated.
	Epsilon float64
	// Variant selects the heuristic combination; default RSME.
	Variant Variant

	// SizeMultiplier is the candidate-set size factor c (|E_C| = c*|E|);
	// default 2.0.
	SizeMultiplier float64
	// WhiteNoise is the uniform-noise floor q; default 0.01. Pass a
	// negative value to disable white noise entirely.
	WhiteNoise float64
	// Attempts is the number of randomized trials t per GenObf call;
	// default 5. A call whose graph the search cannot publish is a probe:
	// it stops at its first accepted trial. Every call still takes t
	// streams, so the search's trajectory does not depend on which calls
	// are probes.
	Attempts int
	// Samples is the Monte Carlo budget for reliability-relevance
	// estimation; default reliability.DefaultSamples.
	Samples int
	// SamplingMode selects the world-drawing strategy of the run's
	// reliability estimators (default independent; see
	// uncertain.SamplingMode for the antithetic / stratified / coupled
	// variance-reduction trade-offs).
	SamplingMode uncertain.SamplingMode
	// TargetRSE, when positive, switches the run's estimators to adaptive
	// sequential stopping at the given relative standard error, with
	// MaxSamples as the hard cap. See reliability.Estimator.
	TargetRSE float64
	// MaxSamples caps adaptive sampling; 0 = reliability.DefaultMaxSamples.
	// Ignored without TargetRSE.
	MaxSamples int
	// Workers caps the run's parallelism — Monte Carlo sampling and the
	// GenObf attempts — at this many
	// goroutines; 0 = GOMAXPROCS. No output depends on it.
	Workers int
	// Seed makes the run reproducible.
	Seed uint64

	// Property overrides the adversary's per-vertex auxiliary knowledge
	// (Definition 3's vertex property P). Empty means the paper's choice:
	// the rounded expected degree. Supplying a coarser property models a
	// weaker adversary; it must have length |V|.
	Property []int

	// CheckpointPath, when non-empty, is where the σ-search persists its
	// resumable state: written atomically (temp file + rename) on
	// interrupt, and additionally every CheckpointEvery GenObf calls.
	// Removed when the search completes.
	CheckpointPath string
	// CheckpointEvery is the periodic checkpoint cadence in GenObf calls;
	// 0 checkpoints only on interrupt.
	CheckpointEvery int
	// Resume, when non-nil, restores a checkpoint written by an earlier
	// interrupted run. The checkpoint must match the input graph and every
	// search-relevant parameter, and its step log must be one this search
	// writes; the resume replays the log, re-runs the best step's call for
	// its graph, and continues deterministically, so its result is
	// bit-identical to an uninterrupted run.
	Resume *Checkpoint

	// SigmaTolerance terminates the binary search when the bracket width
	// drops below it; default 1e-3.
	SigmaTolerance float64
	// MaxDoublings bounds the initial exponential search; default 8
	// (sigma up to 256).
	MaxDoublings int

	// Obs receives metrics (genObf call/attempt counters, Monte Carlo
	// sampling volume, phase timings) and structured progress logs. Nil
	// disables observability; the search trace in Result.Trace is
	// recorded either way.
	Obs *obs.Observer

	// ProgressBase and ProgressSpan map this search's completion fraction
	// onto the shared run.progress gauge as base + fraction*span. Both
	// zero (the default) means the search owns the whole bar — gauge runs
	// 0→1 and run.eta_seconds is published too. An outer harness running
	// many searches (the experiment sweep) sets them to this cell's slice
	// of the overall grid, so the bar advances monotonically across the
	// sweep instead of saw-toothing per cell; the harness then owns the
	// sweep-wide ETA and the search leaves run.eta_seconds alone.
	ProgressBase float64
	ProgressSpan float64
}

// estimator builds the run's reliability estimator, threading the full
// sampling tuple (budget, seed, mode, adaptive target/cap) so every Monte
// Carlo pass of the search draws from the same configuration.
func (p Params) estimator(ctx context.Context) reliability.Estimator {
	return reliability.Estimator{
		Samples: p.Samples, Seed: p.Seed, Workers: p.Workers,
		Obs: p.Obs, Mode: p.SamplingMode,
		TargetRSE: p.TargetRSE, MaxSamples: p.MaxSamples, Ctx: ctx,
	}
}

func (p Params) withDefaults() Params {
	if p.SizeMultiplier <= 0 {
		p.SizeMultiplier = 2.0
	}
	if p.Attempts <= 0 {
		p.Attempts = 5
	}
	if p.SigmaTolerance <= 0 {
		p.SigmaTolerance = 1e-3
	}
	if p.MaxDoublings <= 0 {
		p.MaxDoublings = 8
	}
	return p
}

// workers resolves Workers: 0 means GOMAXPROCS.
func (p Params) workers() int {
	if p.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.Workers
}

// whiteNoise resolves the q parameter: 0 means the 0.01 default, negative
// disables it. Resolved at use time so withDefaults stays idempotent.
func (p Params) whiteNoise() float64 {
	if p.WhiteNoise < 0 {
		return 0
	}
	if p.WhiteNoise == 0 {
		return 0.01
	}
	return p.WhiteNoise
}

// Check rejects parameters no input graph could make valid: k < 2, ε
// outside [0,1), an unknown variant, or a sampling tuple the reliability
// estimator refuses (see reliability.Estimator.Check). AnonymizeContext
// runs it first; callers that admit work before the graph is in hand run
// it themselves.
func (p Params) Check() error {
	if p.K < 2 {
		return fmt.Errorf("core: k must be >= 2, got %d", p.K)
	}
	if !(p.Epsilon >= 0 && p.Epsilon < 1) {
		return fmt.Errorf("core: epsilon must be in [0,1), got %v", p.Epsilon)
	}
	if p.Variant < 0 || int(p.Variant) >= len(variantNames) {
		return fmt.Errorf("core: unknown method %v", p.Variant)
	}
	return p.estimator(nil).Check()
}

// CheckGraph rejects parameters that do not fit g: an empty or edgeless
// graph, k > |V|, or a Property of the wrong length.
func (p Params) CheckGraph(g *uncertain.Graph) error {
	if g == nil || g.NumNodes() == 0 {
		return errors.New("core: empty graph")
	}
	if g.NumEdges() == 0 {
		return errors.New("core: graph has no edges to perturb")
	}
	if p.K > g.NumNodes() {
		return fmt.Errorf("core: k=%d exceeds |V|=%d", p.K, g.NumNodes())
	}
	if p.Property != nil && len(p.Property) != g.NumNodes() {
		return fmt.Errorf("core: property length %d != |V| %d", len(p.Property), g.NumNodes())
	}
	return nil
}

// validate is Check followed by CheckGraph.
func (p Params) validate(g *uncertain.Graph) error {
	if err := p.Check(); err != nil {
		return err
	}
	return p.CheckGraph(g)
}

// Result is the outcome of a successful anonymization.
type Result struct {
	// Graph is the published (k, eps)-obfuscated uncertain graph.
	Graph *uncertain.Graph
	// EpsilonTilde is the achieved fraction of under-obfuscated vertices
	// (<= Params.Epsilon).
	EpsilonTilde float64
	// Sigma is the final noise level selected by the binary search.
	Sigma float64
	// GenObfCalls counts invocations of the GenObf procedure. The full
	// re-run of a probe best is not one.
	GenObfCalls int
	// Attempts counts the randomized trials whose outcome the search
	// read: t per full or failed call and per full re-run, and up to and
	// including the chosen trial per successful probe. It is the same on
	// every worker count; trials a probe had in flight past its chosen one
	// are dropped and counted by the core.genobf_discarded counter only.
	Attempts int
	// Variant echoes the heuristic combination used.
	Variant Variant
	// Trace is the phase-level search trace: a "precompute" span for the
	// score precomputation, with "uniqueness" (attributes n, distinct,
	// boxes and kernel_evals) and, for RSME and RS, "edge-relevance"
	// children, then one span per search phase ("exponential-search",
	// "bisection") whose "genobf" children carry the sigma tried, the call
	// number, whether the call was a probe, the trials it ran and, on
	// success, the chosen trial's seq; a probe best's full re-run is the
	// bisection's last "genobf" span, marked rerun. Their "attempt"
	// children carry the per-trial outcome (seq, epsilon_tilde, ok,
	// injected_edges, and discarded for a trial a probe dropped) and wall
	// time, split into "select", "perturb" and "check" children. Always
	// recorded; query it with Find/FindAll.
	Trace *obs.Span
}

// ErrNoObfuscation is returned when no sigma within the search budget
// yields a (k, eps)-obfuscation.
var ErrNoObfuscation = errors.New("core: could not find a (k,eps)-obfuscation within the noise budget")
