package core

import (
	"context"
	"math"
	"math/rand/v2"

	"chameleon/internal/privacy"
	"chameleon/internal/truncnorm"
	"chameleon/internal/uncertain"
)

// genObfOutcome is the <eps~, G~> pair returned by GenObf; epsilon == 1
// signals failure (no trial achieved the tolerance).
type genObfOutcome struct {
	epsilon float64
	graph   *uncertain.Graph
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

// genObfCtx runs one GenObf call under a context. A call cut short by
// cancellation is discarded wholesale: the RNG stream position and the
// call/attempt totals are rolled back to their pre-call values, so a
// resumed run replays the call from scratch and walks the exact RNG
// sequence an uninterrupted run would have — the property the bit-identical
// resume guarantee rests on.
func (st *searchState) genObfCtx(ctx context.Context, sigma float64, res *Result) (genObfOutcome, error) {
	seqBefore := st.seq
	callsBefore, attemptsBefore := res.GenObfCalls, res.Attempts
	out := st.genObf(ctx, sigma, res)
	if err := ctx.Err(); err != nil {
		st.seq = seqBefore
		res.GenObfCalls, res.Attempts = callsBefore, attemptsBefore
		return genObfOutcome{}, err
	}
	return out, nil
}

// genObf implements Algorithm 3: t randomized trials of edge selection and
// perturbation at noise level sigma, returning the trial with the smallest
// achieved epsilon~ that meets the tolerance, or epsilon~ = 1 on failure.
// Cancellation is honored between attempts; a partial call's outcome is
// discarded by genObfCtx.
//
// Every attempt builds its graph in st.work. Only a new best escapes: it
// swaps places with the call's previous best, which becomes the working
// graph of the next attempt (nil until the first winner, so the next
// attempt clones the input afresh). A graph genObf returns is never
// touched again.
func (st *searchState) genObf(ctx context.Context, sigma float64, res *Result) genObfOutcome {
	res.GenObfCalls++
	reg := st.p.Obs.Registry()
	reg.Counter("core.genobf_calls").Inc()
	sp := st.phase.StartChild("genobf")
	sp.SetAttr("sigma", sigma)
	sp.SetAttr("call", res.GenObfCalls)

	best := genObfOutcome{epsilon: 1}
	for t := 0; t < st.p.Attempts; t++ {
		if ctx.Err() != nil {
			break
		}
		res.Attempts++
		reg.Counter("core.genobf_attempts").Inc()
		asp := sp.StartChild("attempt")
		asp.SetAttr("sigma", sigma)
		st.seq++
		pub, rep, err := st.attempt(sigma)
		// Injected candidates that survived perturbation: pub keeps every
		// original edge, so the edge-count delta is exactly the re-injected
		// non-edges.
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
		if accepted {
			reg.Counter("core.genobf_accepted").Inc()
		}
		if accepted && rep.EpsilonTilde < best.epsilon {
			best.epsilon = rep.EpsilonTilde
			best.graph, st.work = st.work, best.graph
		}
	}
	sp.SetAttr("ok", best.ok())
	if best.ok() {
		sp.SetAttr("epsilon_tilde", best.epsilon)
	}
	sp.End()
	reg.Latency("core.genobf_seconds").Observe(sp.Duration())
	st.p.Obs.Debug("core: genobf", "sigma", sigma, "ok", best.ok(),
		"epsilon_tilde", best.epsilon, "dur", sp.Duration())
	return best
}

// attempt runs trial st.seq at noise level sigma: it selects E_C, perturbs
// it into st.work and checks the result, which it returns as pub. The
// trial's RNG stream is PCG(Seed^0xC0DEC0DE, seq), reseeded in place.
func (st *searchState) attempt(sigma float64) (pub *uncertain.Graph, rep privacy.ObfuscationReport, err error) {
	st.pcg.Seed(st.p.Seed^0xC0DEC0DE, st.seq)
	pub = st.perturb(st.selectCandidates(st.rng), sigma, st.rng)
	rep, err = privacy.CheckObfuscation(pub, st.prop, st.p.K)
	return pub, rep, err
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
func (st *searchState) sampleVertex(rng *rand.Rand) uncertain.NodeID {
	return uncertain.NodeID(st.qs.search(rng.Float64() * st.qs.cum[len(st.qs.cum)-1]))
}

// selectCandidates builds E_C (Algorithm 3 lines 9-16): it starts from the
// full edge set, then repeatedly samples vertex pairs from Q; an existing
// sampled edge is excluded from E_C with probability p(e) (protecting
// reliable edges from perturbation), a sampled non-edge is added as an
// injection candidate. The loop ends when |E_C| reaches c*|E| (or an
// iteration cap, to stay robust on dense graphs).
//
// The returned slice is st.cands, valid until the next call. An edge ei
// left E_C this attempt iff st.removed[ei] == st.epoch.
func (st *searchState) selectCandidates(rng *rand.Rand) []candidate {
	g := st.g
	m := g.NumEdges()
	if st.epoch++; st.epoch == 0 {
		clear(st.removed)
		st.epoch = 1
	}
	clear(st.addedSet)
	added := st.added[:0] // insertion order: keeps the trial deterministic per seed
	size := m
	maxIter := 64 * (st.target + 16)
	for iter := 0; size != st.target && iter < maxIter; iter++ {
		u := st.sampleVertex(rng)
		v := st.sampleVertex(rng)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		pair := [2]uncertain.NodeID{u, v}
		if ei := g.EdgeIndex(u, v); ei >= 0 {
			if st.removed[ei] != st.epoch && size > 0 {
				e := g.Edge(ei)
				if rng.Float64() < e.P {
					st.removed[ei] = st.epoch
					size--
				}
			}
		} else if size < st.target {
			if _, dup := st.addedSet[pair]; !dup {
				st.addedSet[pair] = struct{}{}
				added = append(added, pair)
				size++
			}
		}
	}
	cands := st.cands[:0]
	for i := 0; i < m; i++ {
		if st.removed[i] != st.epoch {
			e := g.Edge(i)
			cands = append(cands, candidate{u: e.U, v: e.V, p: e.P, orig: i})
		}
	}
	for _, pair := range added {
		cands = append(cands, candidate{u: pair[0], v: pair[1], p: 0, orig: -1})
	}
	st.added, st.cands = added, cands
	return cands
}

// perturb applies the per-edge noise to the candidate set and materializes
// the published graph in st.work: the input (st.work rolled back to it, or
// cloned from it when st.work is nil) with each candidate's SetProb or
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
func (st *searchState) perturb(cands []candidate, sigma float64, rng *rand.Rand) *uncertain.Graph {
	var sumQ float64
	qe := st.qe[:0]
	for _, c := range cands {
		q := (st.q[c.u] + st.q[c.v]) / 2
		qe = append(qe, q)
		sumQ += q
	}
	st.qe = qe
	if st.work == nil {
		st.work = st.g.Clone()
	} else {
		st.work.Rollback(st.g)
	}
	pub := st.work
	useME := st.p.Variant.maxEntropy()
	for i, c := range cands {
		var sigmaE float64
		if sumQ > 0 {
			sigmaE = sigma * float64(len(cands)) * qe[i] / sumQ
		} else {
			sigmaE = sigma
		}
		var r float64
		if rng.Float64() < st.p.whiteNoise() {
			r = rng.Float64()
		} else {
			r = truncnorm.Sample(rng, sigmaE)
		}
		var pNew float64
		if useME {
			pNew = c.p + (1-2*c.p)*r
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
	}
	return pub
}
