package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"chameleon/internal/obs"
	"chameleon/internal/privacy"
	"chameleon/internal/reliability"
	"chameleon/internal/repan"
	"chameleon/internal/uncertain"
)

// Anonymize runs the Chameleon iterative skeleton (Algorithm 1) without
// cancellation; see AnonymizeContext.
func Anonymize(g *uncertain.Graph, p Params) (*Result, error) {
	return AnonymizeContext(context.Background(), g, p)
}

// AnonymizeContext runs the Chameleon iterative skeleton (Algorithm 1): an
// exponential search for a noise level sigma at which GenObf succeeds,
// followed by a binary search for the smallest such sigma. Uniqueness and
// reliability-relevance scores depend only on the input graph, so they are
// computed once and shared across all GenObf calls.
//
// Cancelling ctx stops the search cooperatively — at Monte Carlo chunk
// boundaries during the precompute, at GenObf attempt boundaries during
// the search. An interrupted search returns a NON-nil *Result carrying the
// best obfuscation found so far (Result.Graph is nil when none was found)
// together with an error wrapping ctx.Err(); callers distinguish the
// partial outcome with errors.Is(err, context.Canceled) or
// context.DeadlineExceeded. Until the search ends that best may be a
// probe's first accepted trial rather than its call's best of t; it is a
// (k, eps)-obfuscation either way.
//
// With Params.CheckpointPath set, the search state is snapshotted
// atomically on interrupt (and every Params.CheckpointEvery GenObf calls),
// and Params.Resume restores such a snapshot: a resumed run replays the
// remaining search deterministically and its result is bit-identical to an
// uninterrupted run with the same inputs. A checkpoint left behind by an
// earlier interrupt is removed once the search completes.
//
// A RepAn run first extracts the input's representative — recorded as a
// "representative" child of the "precompute" span — and from there on is
// the Boldi search over it: its checkpoints, its trace's variant attribute
// and Result.Variant all say Boldi.
func AnonymizeContext(ctx context.Context, g *uncertain.Graph, p Params) (*Result, error) {
	p = p.withDefaults()
	if err := p.validate(g); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	root := obs.NewSpan("anonymize")
	defer root.End()

	pre := root.StartChild("precompute")
	if p.Variant == RepAn {
		span := pre.StartChild("representative")
		g, p = repAn(g, p)
		span.End()
		if err := p.CheckGraph(g); err != nil {
			pre.End()
			return nil, err
		}
	}
	root.SetAttr("variant", p.Variant.String())
	if p.Resume != nil {
		if err := p.Resume.validateAgainst(g, p); err != nil {
			pre.End()
			return nil, err
		}
	}
	st, err := newSearchState(ctx, pre, g, p)
	pre.End()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		// Cancelled during the precompute: the relevance scores are
		// truncated garbage and nothing search-shaped exists to checkpoint
		// (a resume redoes the deterministic precompute anyway). The
		// result carries only the trace, so the run's timeline survives.
		return &Result{Variant: p.Variant, Trace: root}, interruptErr(err, 0)
	}
	p.Obs.Debug("core: precompute done",
		"variant", p.Variant.String(), "dur", pre.Duration())

	res := &Result{Variant: p.Variant, Trace: root}
	cur := newSearchCursor(p)
	if p.Resume != nil {
		if cur, err = st.resume(ctx, root, p.Resume, res); err != nil {
			return nil, err
		}
		p.Obs.Log("core: resuming σ-search from checkpoint",
			"phase", cur.phase, "sigma_lo", cur.sigmaLo, "sigma_hi", cur.sigmaHi,
			"genobf_calls", res.GenObfCalls, "best_epsilon", cur.best.epsilon)
	}

	// Phase 1: exponential search for a feasible sigma. The search starts
	// from a near-zero noise level rather than the paper's sigma_u = 1: an
	// uncertain original often already carries enough degree entropy that
	// tiny noise suffices, and GenObf success is not monotone in sigma, so
	// starting high can lock the bisection into a needlessly large noise
	// bracket.
	if cur.phase == phaseExponential {
		phase := root.StartChild("exponential-search")
		st.phase = phase
		for cur.phase == phaseExponential {
			sigma, probe := cur.next(p.SigmaTolerance)
			out, err := st.genObfCtx(ctx, sigma, st.seq, probe, res)
			if err != nil {
				phase.End()
				return st.interrupted(cur, res, err)
			}
			if !out.ok() && cur.doublings >= p.MaxDoublings {
				phase.SetAttr("found", false)
				phase.SetAttr("doublings", cur.doublings)
				phase.End()
				return nil, ErrNoObfuscation
			}
			cur.apply(sigma, out)
			st.publishProgress(cur, res)
			st.maybeCheckpoint(cur, res)
		}
		phase.SetAttr("found", true)
		phase.SetAttr("sigma_hi", cur.sigmaHi)
		phase.SetAttr("sigma_lo", cur.sigmaLo)
		phase.SetAttr("doublings", cur.doublings)
		phase.End()
		p.Obs.Debug("core: exponential search bracketed sigma",
			"sigma_lo", cur.sigmaLo, "sigma_hi", cur.sigmaHi, "dur", phase.Duration())
	}

	// Phase 2: bisection for the smallest feasible sigma, keeping the best
	// obfuscation found.
	phase := root.StartChild("bisection")
	st.phase = phase
	bisections := 0
	for cur.sigmaHi-cur.sigmaLo > p.SigmaTolerance {
		sigma, probe := cur.next(p.SigmaTolerance)
		out, err := st.genObfCtx(ctx, sigma, st.seq, probe, res)
		if err != nil {
			phase.End()
			return st.interrupted(cur, res, err)
		}
		cur.apply(sigma, out)
		bisections++
		st.publishProgress(cur, res)
		st.maybeCheckpoint(cur, res)
	}
	if cur.best.probe {
		// The best is a probe's first accepted trial: re-run its call in
		// full, on the same streams, for the best of its t trials.
		out, err := st.genObfCtx(ctx, cur.bestSigma, cur.best.base, false, res)
		if err != nil {
			phase.End()
			return st.interrupted(cur, res, err)
		}
		if !out.ok() {
			panic("core: unreachable: the full re-run of an accepted probe accepted no trial")
		}
		cur.best = out
	}
	phase.SetAttr("sigma", cur.sigmaHi)
	phase.SetAttr("steps", bisections)
	phase.SetAttr("bracket_width", cur.sigmaHi-cur.sigmaLo)
	phase.End()
	st.publishDone()

	res.Graph = cur.best.graph
	res.EpsilonTilde = cur.best.epsilon
	res.Sigma = cur.sigmaHi
	root.SetAttr("sigma", res.Sigma)
	root.SetAttr("epsilon_tilde", res.EpsilonTilde)
	st.clearCheckpoint()
	p.Obs.Log("core: anonymization done",
		"variant", p.Variant.String(), "sigma", res.Sigma,
		"epsilon_tilde", res.EpsilonTilde, "genobf_calls", res.GenObfCalls,
		"attempts", res.Attempts, "dur", root.Duration())
	return res, nil
}

// repAn turns a Rep-An run into the Boldi run over the input's
// representative that it is. The privacy check then runs against the
// representative's own degrees, exactly as a pipeline unaware of the
// original uncertainty would do.
//
// The candidate-set budget c is defined against the ORIGINAL graph's edge
// count: representative extraction typically drops a large share of the
// low-probability edges, and computing c against the shrunken edge set
// would starve the baseline of injection candidates relative to Chameleon.
// The rescaling keeps the comparison fair — both pipelines may touch the
// same number of vertex pairs.
func repAn(g *uncertain.Graph, p Params) (*uncertain.Graph, Params) {
	rep := repan.Representative(g)
	if rep.NumEdges() > 0 {
		p.SizeMultiplier = p.SizeMultiplier * float64(g.NumEdges()) / float64(rep.NumEdges())
	}
	p.Variant = Boldi
	return rep, p
}

// interrupted finalizes a cancelled search: it flushes a checkpoint (when
// configured), packages the best-so-far outcome into a partial Result, and
// wraps the cancellation cause. A checkpoint write failure is joined onto
// the returned error — the caller must know its resume file is missing.
func (st *searchState) interrupted(cur *searchCursor, res *Result, cause error) (*Result, error) {
	err := interruptErr(cause, res.GenObfCalls)
	if wErr := st.writeCheckpoint(cur, res); wErr != nil {
		err = errors.Join(err, wErr)
	} else if st.p.CheckpointPath != "" {
		st.p.Obs.Log("core: search checkpointed on interrupt",
			"path", st.p.CheckpointPath, "phase", cur.phase,
			"genobf_calls", res.GenObfCalls)
	}
	res.Graph = cur.best.graph
	res.EpsilonTilde = cur.best.epsilon
	res.Sigma = cur.bestSigma
	return res, err
}

func interruptErr(cause error, calls int) error {
	return fmt.Errorf("core: σ-search interrupted after %d genobf calls: %w", calls, cause)
}

// clearCheckpoint removes a leftover checkpoint once the search completes:
// resuming a finished run from a stale snapshot would silently rerun part
// of the search.
func (st *searchState) clearCheckpoint() {
	if st.p.CheckpointPath == "" {
		return
	}
	if err := removeIfExists(st.p.CheckpointPath); err != nil {
		st.p.Obs.Log("core: removing completed checkpoint failed", "error", err.Error())
	}
}

// searchState is the σ-search's state: the read-only inputs every GenObf
// attempt reads, the RNG stream position, and one attempt slot per worker.
type searchState struct {
	searchInputs
	seq      uint64    // attempt counter for RNG derivation
	phase    *obs.Span // current search-phase span; genObf nests under it
	gHash    uint64    // cached input fingerprint for checkpoints
	lastCkpt int       // GenObfCalls at the last periodic checkpoint

	slots []*attemptSlot   // per-worker attempt state; slots[0] always exists
	best  []uncertain.Edge // edge list of the current call's best attempt
}

// searchInputs holds everything GenObf needs that is invariant across the
// sigma search: the input graph, the privacy/utility scores, the exclusion
// set and the vertex sampling distribution. It is only ever read once the
// search starts, so every attempt slot shares it.
type searchInputs struct {
	g      *uncertain.Graph
	p      Params
	prop   []int     // adversary property (default: rounded expected degree)
	excl   []bool    // exclusion set H, by vertex
	q      []float64 // per-vertex selection weight Q^v (0 for excluded)
	qs     qSampler  // draws vertices from Q
	target int       // |E_C| target = c*|E|
}

// attemptSlot is one worker's attempt state, reused from one attempt to
// the next. The input graph is only ever read.
type attemptSlot struct {
	*searchInputs
	pcg     *rand.PCG  // the attempt's stream, reseeded per attempt
	rng     *rand.Rand // reads pcg
	removed []uint32   // by edge index: == epoch when removed from E_C
	epoch   uint32
	added   pairSet // injected pairs, in insertion order
	trial   trial   // the attempt's outcome
}

func (in *searchInputs) newSlot() *attemptSlot {
	pcg := rand.NewPCG(0, 0)
	return &attemptSlot{
		searchInputs: in, pcg: pcg, rng: rand.New(pcg),
		removed: make([]uint32, in.g.NumEdges()),
		added:   newPairSet(in.target - in.g.NumEdges()),
		trial:   trial{g: in.g, off: make([]int32, in.g.NumNodes()+2)},
	}
}

// newSearchState records the uniqueness and (for RSME and RS) the
// edge-relevance layers as children of pre.
func newSearchState(ctx context.Context, pre *obs.Span, g *uncertain.Graph, p Params) (*searchState, error) {
	n := g.NumNodes()

	span := pre.StartChild("uniqueness")
	uniq, kernel := privacy.VertexUniquenessDistinct(g)
	span.SetAttr("n", n)
	span.SetAttr("distinct", kernel.Distinct)
	span.SetAttr("boxes", kernel.Boxes)
	span.SetAttr("kernel_evals", kernel.KernelEvals)
	span.End()

	var vrr []float64
	if p.Variant.reliabilitySensitive() {
		rel := pre.StartChild("edge-relevance")
		edgeRel := p.estimator(ctx).EdgeRelevance(g)
		vrr = reliability.NormalizeToUnit(reliability.VertexRelevance(g, edgeRel))
		rel.End()
	} else {
		vrr = make([]float64, n)
	}

	// Exclusion: the ceil(eps/2 * |V|) vertices with the largest combined
	// uniqueness-and-relevance score are exempted from obfuscation effort.
	hSize := int(math.Ceil(p.Epsilon / 2 * float64(n)))
	excl := make([]bool, n)
	if hSize > 0 {
		combined := make([]float64, n)
		for v := 0; v < n; v++ {
			if p.Variant.reliabilitySensitive() {
				combined[v] = uniq[v] * vrr[v]
			} else {
				combined[v] = uniq[v]
			}
		}
		for _, v := range topK(combined, hSize) {
			excl[v] = true
		}
	}

	// Selection weight: proportional to uniqueness, inversely proportional
	// to (normalized) reliability relevance. VRR is re-normalized over the
	// non-excluded vertices per Algorithm 3 line 5.
	maxVRR := 0.0
	for v := 0; v < n; v++ {
		if !excl[v] && vrr[v] > maxVRR {
			maxVRR = vrr[v]
		}
	}
	q := make([]float64, n)
	for v := 0; v < n; v++ {
		if excl[v] {
			continue
		}
		w := uniq[v]
		if p.Variant.reliabilitySensitive() && maxVRR > 0 {
			// Keep a small floor so zero-weight vertices stay reachable.
			// float64() rounds the product: no fused multiply-add on any GOARCH.
			w *= 1 - float64(0.95*(vrr[v]/maxVRR))
		}
		q[v] = w
	}
	cum := make([]float64, n)
	var total float64
	for v := 0; v < n; v++ {
		total += q[v]
		cum[v] = total
	}
	if total <= 0 {
		// Degenerate scores: fall back to uniform over non-excluded.
		total = 0
		for v := 0; v < n; v++ {
			if !excl[v] {
				q[v] = 1
			}
			total += q[v]
			cum[v] = total
		}
	}

	target := int(math.Round(p.SizeMultiplier * float64(g.NumEdges())))
	if target < 1 {
		target = 1
	}
	maxPairs := n * (n - 1) / 2
	if target > maxPairs {
		target = maxPairs
	}

	prop := p.Property
	if prop == nil {
		prop = privacy.DegreeProperty(g)
	}
	st := &searchState{searchInputs: searchInputs{
		g: g, p: p, prop: prop, excl: excl, q: q, qs: newQSampler(cum), target: target,
	}}
	st.slots = []*attemptSlot{st.newSlot()}
	return st, nil
}

// topK returns the indices of the k largest scores.
func topK(scores []float64, k int) []int {
	if k > len(scores) {
		k = len(scores)
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	// Partial selection sort is fine: k is eps/2*|V|, tiny in practice.
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if scores[idx[j]] > scores[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}
