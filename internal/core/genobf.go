package core

import (
	"context"
	"math"
	"math/rand/v2"
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
// Every attempt builds its graph in its slot's working graph, which no
// winner ever takes: a new best copies its edge list into the call's best
// list instead. At the end of the call the winner is rebuilt from that
// list in slot 0's working graph, which leaves the slot for good (the
// slot's next attempt clones the input afresh), so a graph genObf returns
// is never touched again.
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
			pub, rep, err := a.attempt(seq, sigma, asp)
			// Injected candidates that survived perturbation: pub keeps
			// every original edge, so the edge-count delta is exactly the
			// re-injected non-edges.
			asp.SetAttr("injected_edges", pub.NumEdges()-st.g.NumEdges())
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
				st.best = pub.AppendEdges(st.best[:0])
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
		best.graph = st.slots[0].publish(st.best)
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
// it into a.work and checks the result, which it returns as pub. The
// trial's RNG stream is PCG(Seed^0xC0DEC0DE, seq), reseeded in place.
// Each of the three steps is timed as a child span of sp: "select",
// "perturb" and "check".
func (a *attemptSlot) attempt(seq uint64, sigma float64, sp *obs.Span) (pub *uncertain.Graph, rep privacy.ObfuscationReport, err error) {
	a.pcg.Seed(a.p.Seed^0xC0DEC0DE, seq)
	step := sp.StartChild("select")
	a.selectCandidates(a.rng)
	step.End()
	step = sp.StartChild("perturb")
	pub = a.perturb(sigma, a.rng)
	step.End()
	step = sp.StartChild("check")
	rep, err = privacy.CheckObfuscation(pub, a.prop, a.p.K)
	step.End()
	return pub, rep, err
}

// resetWork returns a.work rolled back to the input, or a fresh clone of
// the input when the slot has none.
func (a *attemptSlot) resetWork() *uncertain.Graph {
	if a.work == nil {
		a.work = a.g.Clone()
	} else {
		a.work.Rollback(a.g)
	}
	return a.work
}

// publish rebuilds the graph whose edge list is edges — an attempt's
// working graph, copied by AppendEdges — in a's working graph, and hands
// that graph over: the slot's next attempt clones the input afresh. The
// first |E| edges are the input's, each with its perturbed probability;
// the rest are the injected edges in insertion order, re-added in that
// order, so the result equals the attempt's graph in edge, index and
// adjacency order alike.
func (a *attemptSlot) publish(edges []uncertain.Edge) *uncertain.Graph {
	pub := a.resetWork()
	a.work = nil
	m := a.g.NumEdges()
	for i, e := range edges[:m] {
		if err := pub.SetProb(i, e.P); err != nil {
			panic(err) // unreachable: the attempt set the same probability
		}
	}
	for _, e := range edges[m:] {
		if err := pub.AddEdge(e.U, e.V, e.P); err != nil {
			panic(err) // unreachable: the attempt added the same edge
		}
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

// perturb applies the per-edge noise to the candidate set and materializes
// the published graph in a.work: the input (a.work rolled back to it, or
// cloned from it when a.work is nil) with each candidate's SetProb or
// AddEdge applied in candidate order, so the published edge order is the
// input's edges in index order, then the injected edges in insertion
// order. Noise budget sigma is redistributed across candidates
// proportionally to their uncertainty level Q^e = (Q^u + Q^v)/2, so that
// the mean of sigma(e) equals sigma. With probability q (white noise) the
// draw is uniform on [0,1] instead of truncated-normal.
//
// Max-entropy variants move the probability toward 1/2 along the entropy
// gradient: p~ = p + (1-2p) * r (Section V-F, Lemma 6). The unguided RS
// variant applies the same magnitude with a random sign, clamped to [0,1].
func (a *attemptSlot) perturb(sigma float64, rng *rand.Rand) *uncertain.Graph {
	var sumQ float64
	n := 0
	a.eachCandidate(func(c candidate) {
		sumQ += a.qe(c)
		n++
	})
	pub := a.resetWork()
	useME := a.p.Variant.maxEntropy()
	a.eachCandidate(func(c candidate) {
		var sigmaE float64
		if sumQ > 0 {
			sigmaE = sigma * float64(n) * a.qe(c) / sumQ
		} else {
			sigmaE = sigma
		}
		var r float64
		if rng.Float64() < a.p.whiteNoise() {
			r = rng.Float64()
		} else {
			r = truncnorm.Sample(rng, sigmaE)
		}
		var pNew float64
		if useME {
			// float64() rounds the product: no fused multiply-add on any GOARCH.
			pNew = c.p + float64((1-2*c.p)*r)
		} else {
			if rng.Float64() < 0.5 {
				r = -r
			}
			pNew = c.p + r
			if pNew < 0 {
				pNew = 0
			} else if pNew > 1 {
				pNew = 1
			}
		}
		if c.orig >= 0 {
			// Existing edge: overwrite its probability.
			if err := pub.SetProb(c.orig, pNew); err != nil {
				panic(err) // unreachable: pNew is clamped and index valid
			}
		} else if pNew > minInjectedProb {
			// Injected edge. Draws that land at a negligible probability
			// are dropped: they carry no entropy or reliability mass but
			// would bloat the published edge list.
			if err := pub.AddEdge(c.u, c.v, pNew); err != nil {
				panic(err) // unreachable: pair validated at selection
			}
		}
	})
	return pub
}
