package core

import (
	"context"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"

	"chameleon/internal/obs"
	"chameleon/internal/privacy"
	"chameleon/internal/truncnorm"
	"chameleon/internal/uncertain"
)

// genObfOutcome is the <eps~, G~> pair returned by GenObf; epsilon == 1
// signals failure (no trial achieved the tolerance). base is the stream
// position of the call, whose trials ran seqs base+1..base+t. A probe's
// outcome is its lowest-seq accepted trial, not the call's best of t.
type genObfOutcome struct {
	epsilon float64
	graph   *uncertain.Graph
	base    uint64
	probe   bool
}

func (o genObfOutcome) ok() bool { return o.epsilon < 1 }

// minInjectedProb is the floor below which an injected (previously
// absent) edge is not materialized in the published graph.
const minInjectedProb = 1e-3

// candidate is one member of the perturbation set E_C: either an existing
// edge (orig >= 0, p = original probability) or an injected non-edge
// (orig < 0, p = 0).
type candidate struct {
	u, v uncertain.NodeID
	p    float64
	orig int // index into g's edge list, or -1 for a new edge
}

// genObfCtx runs genObf under a context. A call cut short by
// cancellation is discarded wholesale: the RNG stream position and the
// call/attempt totals are rolled back to their pre-call values, so a
// resumed run replays the call from scratch and walks the exact RNG
// sequence an uninterrupted run would have — the property the bit-identical
// resume guarantee rests on.
func (st *searchState) genObfCtx(ctx context.Context, sigma float64, base uint64, probe bool, res *Result) (genObfOutcome, error) {
	seqBefore := st.seq
	callsBefore, attemptsBefore := res.GenObfCalls, res.Attempts
	out := st.genObf(ctx, sigma, base, probe, res)
	if err := ctx.Err(); err != nil {
		st.seq = seqBefore
		res.GenObfCalls, res.Attempts = callsBefore, attemptsBefore
		return genObfOutcome{}, err
	}
	return out, nil
}

// genObf implements Algorithm 3: t randomized trials of edge selection and
// perturbation at noise level sigma, on seqs base+1..base+t. At base ==
// st.seq it is the search's next call and advances st.seq by t; at an
// earlier base it re-runs that call, which counts as no new call.
//
// A full call (probe false) returns the trial with the smallest achieved
// epsilon~ that meets the tolerance, or epsilon~ = 1 on failure. A probe
// only answers whether the call succeeds: it stops claiming trials once one
// it claimed is accepted, and returns its lowest-seq accepted trial. It
// fails exactly when the full call fails, since then all t trials ran.
//
// Trial i of the call runs seq base+i on its own stream, so trials are
// independent: min(Workers, t) attempt slots claim them off one atomic
// counter, in seq order. A full call's winner is the accepted trial with
// the smallest (epsilon~, seq) — exactly the one the serial strict-< scan
// picks, for any worker count. A probe's is the lowest accepted seq a of
// the call, for any worker count too: claiming stops only after some
// accepted trial b >= a finished, so a was claimed before it and runs to
// the end. Trials above the winner that were already in flight finish and
// are dropped (counted in core.genobf_discarded, their spans marked
// discarded); Result.Attempts counts the trials whose outcome the call
// read, t for a full or failed call and a-base for a successful probe. One
// worker runs the trials in order inline, with no goroutine. Cancellation
// is honored between attempts (each claimed trial polls ctx once); a
// partial call's outcome is discarded by genObfCtx.
//
// No attempt builds a graph: a trial records its outcome in its slot's
// flat edge list, and the check reads it through a per-vertex view. A new
// best copies that list into the call's best list, and at the end of the
// call the winner is built from it once, by FromEdges, as a fresh graph
// that no slot or later call holds.
func (st *searchState) genObf(ctx context.Context, sigma float64, base uint64, probe bool, res *Result) genObfOutcome {
	t := uint64(st.p.Attempts)
	reg := st.p.Obs.Registry()
	rerun := base != st.seq
	if !rerun {
		res.GenObfCalls++
		reg.Counter("core.genobf_calls").Inc()
		st.seq = base + t
	}
	attemptCtr, acceptCtr := reg.Counter("core.genobf_attempts"), reg.Counter("core.genobf_accepted")
	workers := min(st.p.workers(), int(t))
	sp := st.phase.StartChild("genobf")
	sp.SetAttr("sigma", sigma)
	sp.SetAttr("call", int(base/t)+1)
	sp.SetAttr("workers", workers)
	sp.SetAttr("probe", probe)
	if rerun {
		sp.SetAttr("rerun", true)
	}
	for len(st.slots) < workers {
		st.slots = append(st.slots, st.newSlot())
	}

	var (
		next, ran atomic.Uint64
		stop      atomic.Bool // a probe has an accepted trial
		mu        sync.Mutex  // guards bestEps, bestI and st.best
		bestEps   = 1.0
		bestI     uint64                   // the winner's index in 1..t
		spans     = make([]*obs.Span, t+1) // by index, to mark dropped trials
	)
	run := func(a *attemptSlot) {
		for !stop.Load() {
			i := next.Add(1)
			if i > t || ctx.Err() != nil {
				return
			}
			seq := base + i
			ran.Add(1)
			attemptCtr.Inc()
			asp := sp.StartChild("attempt")
			spans[i] = asp
			asp.SetAttr("sigma", sigma)
			asp.SetAttr("seq", seq)
			rep, err := a.attempt(seq, sigma, asp)
			asp.SetAttr("injected_edges", len(a.trial.injected()))
			if err != nil {
				asp.SetAttr("ok", false)
				asp.SetAttr("error", err.Error())
				asp.End()
				continue
			}
			accepted := rep.EpsilonTilde <= st.p.Epsilon
			asp.SetAttr("epsilon_tilde", rep.EpsilonTilde)
			asp.SetAttr("ok", accepted)
			asp.End()
			if !accepted {
				continue
			}
			acceptCtr.Inc()
			mu.Lock()
			better := bestI == 0 || i < bestI
			if !probe {
				better = rep.EpsilonTilde < bestEps || rep.EpsilonTilde == bestEps && i < bestI
			}
			if better {
				bestEps, bestI = rep.EpsilonTilde, i
				st.best = append(st.best[:0], a.trial.edges...)
			}
			mu.Unlock()
			if probe {
				stop.Store(true)
			}
		}
	}
	if workers == 1 {
		run(st.slots[0])
	} else {
		var wg sync.WaitGroup
		for _, a := range st.slots[:workers] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(a)
			}()
		}
		wg.Wait()
	}

	best := genObfOutcome{epsilon: bestEps, base: base, probe: probe}
	read := ran.Load()
	if best.ok() {
		best.graph = st.publish(st.best)
		sp.SetAttr("epsilon_tilde", best.epsilon)
		sp.SetAttr("seq", base+bestI)
		if probe {
			read = bestI
		}
	}
	for _, asp := range spans[read+1:] {
		asp.SetAttr("discarded", true)
	}
	res.Attempts += int(read)
	reg.Counter("core.genobf_discarded").Add(int64(ran.Load() - read))
	sp.SetAttr("trials", int(ran.Load()))
	sp.SetAttr("ok", best.ok())
	sp.End()
	reg.Latency("core.genobf_seconds").Observe(sp.Duration())
	st.p.Obs.Debug("core: genobf", "sigma", sigma, "probe", probe, "ok", best.ok(),
		"epsilon_tilde", best.epsilon, "dur", sp.Duration())
	return best
}

// attempt runs trial seq at noise level sigma: it selects E_C, perturbs
// it into a.trial and checks the graph a.trial stands for. The trial's
// RNG stream is PCG(Seed^0xC0DEC0DE, seq), reseeded in place. Each of
// the three steps is timed as a child span of sp: "select", "perturb"
// and "check".
func (a *attemptSlot) attempt(seq uint64, sigma float64, sp *obs.Span) (privacy.ObfuscationReport, error) {
	a.pcg.Seed(a.p.Seed^0xC0DEC0DE, seq)
	step := sp.StartChild("select")
	a.selectCandidates(a.rng)
	step.End()
	step = sp.StartChild("perturb")
	t := a.perturb(sigma, a.rng)
	step.End()
	step = sp.StartChild("check")
	rep, err := privacy.CheckObfuscation(t, a.prop, a.p.K)
	step.End()
	return rep, err
}

// trial is one attempt's outcome as a flat edge list over the input g:
// the input's edges in index order, each at its perturbed probability,
// then the injected edges that survived the minInjectedProb floor, in
// insertion order. It builds no graph. As a privacy.Published it is the
// check's view of the graph publish builds from that list.
type trial struct {
	g     *uncertain.Graph
	edges []uncertain.Edge

	// The view's index, built once per attempt by index: vertex v's
	// injected edges are edges[j] for j in byVertex[off[v]:off[v+1]], in
	// insertion order, and maxDeg is the largest vertex degree.
	off      []int32
	byVertex []int32
	maxDeg   int
	inc      []int32 // IncidentProbs' buffer of edge indices
}

// injected returns the trial's injected edges.
func (t *trial) injected() []uncertain.Edge { return t.edges[t.g.NumEdges():] }

// NumNodes returns |V|.
func (t *trial) NumNodes() int { return t.g.NumNodes() }

// MaxStructuralDegree returns the largest vertex degree of t's graph.
func (t *trial) MaxStructuralDegree() int { return t.maxDeg }

// IncidentProbs appends v's incident probabilities in t's graph to buf:
// v's input edges in adjacency order, then v's injected edges in
// insertion order. A Graph lists a vertex's edges in edge-index order, so
// this is the order publish's graph lists them in, and the check's
// Poisson-binomial DP adds them up in the same sequence. It reuses t's
// buffer, so one trial serves one caller at a time.
func (t *trial) IncidentProbs(v uncertain.NodeID, buf []float64) []float64 {
	t.inc = append(t.g.IncidentEdges(v, t.inc[:0]), t.byVertex[t.off[v]:t.off[v+1]]...)
	for _, j := range t.inc {
		buf = append(buf, t.edges[j].P)
	}
	return buf
}

// index buckets the injected edges by endpoint, in insertion order, and
// sets maxDeg. Counting v's edges at off[v+2] leaves v's bucket start at
// off[v+1] after the prefix sum, and filling advances it to the bucket's
// end, which is where v+1's starts.
func (t *trial) index() {
	n, m, inj := t.g.NumNodes(), t.g.NumEdges(), t.injected()
	clear(t.off)
	for _, e := range inj {
		t.off[e.U+2]++
		t.off[e.V+2]++
	}
	t.maxDeg = 0
	for v := 0; v < n; v++ {
		t.maxDeg = max(t.maxDeg, t.g.Degree(uncertain.NodeID(v))+int(t.off[v+2]))
		t.off[v+2] += t.off[v+1]
	}
	t.byVertex = slices.Grow(t.byVertex[:0], 2*len(inj))[:2*len(inj)]
	for j, e := range inj {
		for _, v := range [2]uncertain.NodeID{e.U, e.V} {
			t.byVertex[t.off[v+1]] = int32(m + j)
			t.off[v+1]++
		}
	}
}

// publish builds the graph whose edge list is edges, a trial's, with
// FromEdges. The graph is new, so nothing else ever holds it.
func (in *searchInputs) publish(edges []uncertain.Edge) *uncertain.Graph {
	pub, err := uncertain.FromEdges(in.g.NumNodes(), edges)
	if err != nil {
		panic(err) // unreachable: perturbProb keeps p~ in [0,1], and injected pairs are non-edges
	}
	return pub
}

// qSampler draws vertices from the Q distribution through a guide table
// over the cumulative weights cum: bucket(y) = min(int(y*scale), n-1)
// splits [0, total) into n equal-width buckets, and guide[b] counts the
// weights whose bucket lies before b. bucket is monotone, so every weight
// before guide[bucket(x)] is < x, and a forward scan from there lands on
// sort.SearchFloat64s(cum, x) after about one step on average, whatever
// the shape of Q: x falls in a bucket with probability proportional to
// its width, and the n buckets hold n weights.
type qSampler struct {
	cum   []float64
	guide []int32
	scale float64 // n/total, or 0 when that is not finite
}

func newQSampler(cum []float64) qSampler {
	n := len(cum)
	s := qSampler{cum: cum, guide: make([]int32, n)}
	if scale := float64(n) / cum[n-1]; cum[n-1] > 0 && !math.IsInf(scale, 0) {
		s.scale = scale
	}
	i := 0
	for b := range s.guide {
		for i < n && s.bucket(cum[i]) < b {
			i++
		}
		s.guide[b] = int32(i)
	}
	return s
}

func (s *qSampler) bucket(y float64) int {
	return min(int(y*s.scale), len(s.guide)-1)
}

// search returns sort.SearchFloat64s(s.cum, x) clamped to len(s.cum)-1.
func (s *qSampler) search(x float64) int {
	i := int(s.guide[s.bucket(x)])
	for i < len(s.cum)-1 && s.cum[i] < x {
		i++
	}
	return i
}

// sampleVertex draws a vertex from the Q distribution with one
// rng.Float64().
func (in *searchInputs) sampleVertex(rng *rand.Rand) uncertain.NodeID {
	return uncertain.NodeID(in.qs.search(rng.Float64() * in.qs.cum[len(in.qs.cum)-1]))
}

// selectCandidates builds E_C (Algorithm 3 lines 9-16): it starts from the
// full edge set, then repeatedly samples vertex pairs from Q; an existing
// sampled edge is excluded from E_C with probability p(e) (protecting
// reliable edges from perturbation), a sampled non-edge is added as an
// injection candidate. The loop ends when |E_C| reaches c*|E| (or an
// iteration cap, to stay robust on dense graphs).
//
// E_C is left in the slot, and a.eachCandidate walks it: an edge ei left E_C
// this attempt iff a.removed[ei] == a.epoch, and a.added holds the
// injected pairs.
func (a *attemptSlot) selectCandidates(rng *rand.Rand) {
	g := a.g
	m := g.NumEdges()
	if a.epoch++; a.epoch == 0 {
		clear(a.removed)
		a.epoch = 1
	}
	a.added.reset()
	size := m
	maxIter := 64 * (a.target + 16)
	for iter := 0; size != a.target && iter < maxIter; iter++ {
		u := a.sampleVertex(rng)
		v := a.sampleVertex(rng)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if ei := g.EdgeIndex(u, v); ei >= 0 {
			if a.removed[ei] != a.epoch && size > 0 {
				e := g.Edge(ei)
				if rng.Float64() < e.P {
					a.removed[ei] = a.epoch
					size--
				}
			}
		} else if size < a.target && a.added.add(u, v) {
			size++
		}
	}
}

// eachCandidate calls fn on E_C as selectCandidates left it, in
// candidate order: the input's edges still in it by index, then the
// injected pairs in insertion order. Nothing is stored per candidate.
func (a *attemptSlot) eachCandidate(fn func(c candidate)) {
	for i, r := range a.removed {
		if r != a.epoch {
			e := a.g.Edge(i)
			fn(candidate{u: e.U, v: e.V, p: e.P, orig: i})
		}
	}
	for _, pair := range a.added.pairs {
		fn(candidate{u: pair[0], v: pair[1], p: 0, orig: -1})
	}
}

// qe is candidate c's uncertainty level Q^e = (Q^u + Q^v)/2.
func (a *attemptSlot) qe(c candidate) float64 {
	// The halving compiles to a multiply by 0.5; float64() rounds it, so
	// a caller's sum does not fuse it into a multiply-add on any GOARCH.
	return float64((a.q[c.u] + a.q[c.v]) / 2)
}

// perturb applies the per-edge noise to the candidate set and records
// the outcome in a.trial, in candidate order: a candidate input edge gets
// its p~, and an injected pair whose p~ lands above minInjectedProb is
// appended (lower draws carry no entropy or reliability mass but would
// bloat the published edge list). Noise budget sigma is redistributed
// across candidates proportionally to their uncertainty level Q^e =
// (Q^u + Q^v)/2, so that the mean of sigma(e) equals sigma.
func (a *attemptSlot) perturb(sigma float64, rng *rand.Rand) *trial {
	var sumQ float64
	n := 0
	a.eachCandidate(func(c candidate) {
		sumQ += a.qe(c)
		n++
	})
	t := &a.trial
	t.edges = a.g.AppendEdges(t.edges[:0])
	useME := a.p.Variant.maxEntropy()
	a.eachCandidate(func(c candidate) {
		var sigmaE float64
		if sumQ > 0 {
			sigmaE = sigma * float64(n) * a.qe(c) / sumQ
		} else {
			sigmaE = sigma
		}
		pNew := perturbProb(rng, c.p, sigmaE, a.p.whiteNoise(), useME)
		if c.orig >= 0 {
			t.edges[c.orig].P = pNew
		} else if pNew > minInjectedProb {
			t.edges = append(t.edges, uncertain.Edge{U: c.u, V: c.v, P: pNew})
		}
	})
	t.index()
	return t
}

// perturbProb draws the perturbed probability p~ of an edge of
// probability p at noise level sigma. It draws, in this order: the
// white-noise test, which passes with probability whiteNoise; then r,
// uniform on [0,1] if it passed and truncated-normal otherwise; then,
// unguided, the sign of r.
//
// The guided (max-entropy) scheme moves p toward 1/2 along the entropy
// gradient: p~ = p + (1-2p) * r (Section V-F, Lemma 6). The unguided
// (RS) scheme applies the same magnitude with a random sign, clamped to
// [0,1].
func perturbProb(rng *rand.Rand, p, sigma, whiteNoise float64, guided bool) float64 {
	var r float64
	if rng.Float64() < whiteNoise {
		r = rng.Float64()
	} else {
		r = truncnorm.Sample(rng, sigma)
	}
	if guided {
		// float64() rounds the product: no fused multiply-add on any GOARCH.
		return p + float64((1-2*p)*r)
	}
	if rng.Float64() < 0.5 {
		r = -r
	}
	return min(max(p+r, 0), 1)
}
