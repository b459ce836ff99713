package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"chameleon/internal/gen"
	"chameleon/internal/obs"
	"chameleon/internal/privacy"
	"chameleon/internal/uncertain"
)

func newState(t *testing.T, g *uncertain.Graph, p Params) *searchState {
	t.Helper()
	st, err := newSearchState(context.Background(), nil, g, p.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSelectCandidatesReachesTarget(t *testing.T) {
	g := testGraph(t, 10)
	p := Params{K: 5, Epsilon: 0.04, Samples: 50, Seed: 1, SizeMultiplier: 1.5}
	st := newState(t, g, p)
	rng := rand.New(rand.NewPCG(1, 2))
	a := st.slots[0]
	a.selectCandidates(rng)
	var cands []candidate
	a.eachCandidate(func(c candidate) { cands = append(cands, c) })
	if got, want := len(cands), st.target; got != want {
		t.Fatalf("candidate set size %d, want %d", got, want)
	}
	// Candidates must be unique pairs and include no self loops.
	seen := map[[2]uncertain.NodeID]bool{}
	for _, c := range cands {
		if c.u == c.v {
			t.Fatal("self loop in candidates")
		}
		key := [2]uncertain.NodeID{c.u, c.v}
		if seen[key] {
			t.Fatalf("duplicate candidate %v", key)
		}
		seen[key] = true
		if c.orig >= 0 {
			if g.EdgeIndex(c.u, c.v) != c.orig {
				t.Fatal("existing candidate index mismatch")
			}
			if c.p != g.Edge(c.orig).P {
				t.Fatal("existing candidate probability mismatch")
			}
		} else if c.p != 0 {
			t.Fatal("injected candidate must start at p=0")
		}
	}
}

func TestSelectCandidatesExcludedNeverSampled(t *testing.T) {
	g := testGraph(t, 11)
	p := Params{K: 5, Epsilon: 0.2, Samples: 50, Seed: 1}
	st := newState(t, g, p)
	if !slices.Contains(st.excl, true) {
		t.Fatal("test needs a nonempty exclusion set")
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 5000; i++ {
		if st.excl[st.sampleVertex(rng)] {
			t.Fatal("sampled an excluded vertex")
		}
	}
}

func TestPerturbKeepsProbabilitiesValid(t *testing.T) {
	g := testGraph(t, 12)
	for _, variant := range []Variant{RSME, RS, ME, Boldi} {
		p := Params{K: 5, Epsilon: 0.04, Samples: 50, Seed: 2, Variant: variant}
		st := newState(t, g, p)
		rng := rand.New(rand.NewPCG(5, 6))
		st.slots[0].selectCandidates(rng)
		pub := st.publish(st.slots[0].perturb(0.8, rng).edges)
		for i := 0; i < pub.NumEdges(); i++ {
			pr := pub.Edge(i).P
			if pr < 0 || pr > 1 || math.IsNaN(pr) {
				t.Fatalf("%v: edge %d has probability %v", variant, i, pr)
			}
		}
		if pub.NumNodes() != g.NumNodes() {
			t.Fatalf("%v: vertex set changed", variant)
		}
	}
}

func TestMEPerturbationMovesTowardHalf(t *testing.T) {
	// The guided scheme p~ = p + (1-2p) r with r in [0,1] never increases
	// |p - 1/2|.
	f := func(pRaw, rRaw float64) bool {
		p := math.Abs(math.Mod(pRaw, 1))
		r := math.Abs(math.Mod(rRaw, 1))
		pNew := p + (1-2*p)*r
		return pNew >= -1e-12 && pNew <= 1+1e-12 &&
			math.Abs(pNew-0.5) <= math.Abs(p-0.5)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPerturbAllGuidedRaisesEntropy(t *testing.T) {
	// On a deterministic graph the guided scheme strictly raises total
	// degree entropy for any meaningful sigma.
	g := uncertain.New(20)
	for i := 0; i < 19; i++ {
		g.MustAddEdge(uncertain.NodeID(i), uncertain.NodeID(i+1), 1)
	}
	base := privacy.TotalDegreeEntropy(g)
	pert := PerturbAll(g, true, 0.3, 0.01, 1)
	if gain := privacy.TotalDegreeEntropy(pert) - base; gain <= 0 {
		t.Fatalf("entropy gain = %v, want positive", gain)
	}
}

func TestPerturbAllGuidedBeatsUnguided(t *testing.T) {
	// Lemma 6: per unit of injected noise, the gradient-ascent direction
	// buys more degree entropy than random-sign noise. Average over seeds
	// to drown the sampling noise.
	g := testGraph(t, 13)
	base := privacy.TotalDegreeEntropy(g)
	var guided, unguided float64
	const trials = 5
	for s := uint64(0); s < trials; s++ {
		guided += privacy.TotalDegreeEntropy(PerturbAll(g, true, 0.25, 0.01, s)) - base
		unguided += privacy.TotalDegreeEntropy(PerturbAll(g, false, 0.25, 0.01, s)) - base
	}
	if guided <= unguided {
		t.Fatalf("guided gain %v should beat unguided %v", guided/trials, unguided/trials)
	}
}

func TestPerturbAllPreservesStructure(t *testing.T) {
	g := testGraph(t, 14)
	pert := PerturbAll(g, true, 0.5, 0.01, 9)
	if pert.NumEdges() != g.NumEdges() || pert.NumNodes() != g.NumNodes() {
		t.Fatal("PerturbAll must keep the edge set, changing only probabilities")
	}
	for i := 0; i < pert.NumEdges(); i++ {
		if p := pert.Edge(i).P; p < 0 || p > 1 {
			t.Fatalf("edge %d probability %v", i, p)
		}
	}
}

func TestGenObfOutcome(t *testing.T) {
	if (genObfOutcome{epsilon: 1}).ok() {
		t.Fatal("epsilon=1 is failure")
	}
	if !(genObfOutcome{epsilon: 0.01}).ok() {
		t.Fatal("epsilon<1 is success")
	}
}

func TestGenObfRespectsEpsilon(t *testing.T) {
	g := testGraph(t, 15)
	p := Params{K: 6, Epsilon: 0.04, Samples: 60, Seed: 11}.withDefaults()
	st := newState(t, g, p)
	res := &Result{}
	out := st.genObf(context.Background(), 0.05, st.seq, false, res)
	if out.ok() && out.epsilon > p.Epsilon {
		t.Fatalf("successful outcome with eps~ %v > eps %v", out.epsilon, p.Epsilon)
	}
	if res.GenObfCalls != 1 || res.Attempts != p.Attempts {
		t.Fatalf("effort accounting wrong: %+v", res)
	}
}

func TestInjectedEdgePruning(t *testing.T) {
	// With sigma ~ 0, injected candidates draw r ~ 0 and must be dropped
	// rather than materialized as junk edges.
	g := testGraph(t, 16)
	p := Params{K: 5, Epsilon: 0.04, Samples: 50, Seed: 3, WhiteNoise: -1}
	st := newState(t, g, p.withDefaults())
	rng := rand.New(rand.NewPCG(7, 8))
	st.slots[0].selectCandidates(rng)
	if n := len(st.slots[0].perturb(1e-9, rng).injected()); n > 0 {
		t.Fatalf("near-zero noise should not add edges: %d injected", n)
	}
}

// brightkiteGraph is a brightkite-s shaped graph: BA topology, two edges
// per new vertex, small probabilities with mean 0.29.
func brightkiteGraph(t testing.TB, n int) *uncertain.Graph {
	t.Helper()
	g, err := gen.BarabasiAlbert(n, 2, gen.SmallProbs(0.29), rand.New(rand.NewPCG(7, 0xa12)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// warmAttempt returns the attempt slot of a search state over g, its
// buffers grown by running attempt 1 at sigma already.
func warmAttempt(t testing.TB, g *uncertain.Graph, sigma float64) *attemptSlot {
	t.Helper()
	st, err := newSearchState(context.Background(), nil, g, Params{K: 40, Epsilon: 0.01, Seed: 7, Variant: ME}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	a := st.slots[0]
	if _, err := a.attempt(1, sigma, nil); err != nil {
		t.Fatal(err)
	}
	return a
}

// BenchmarkGenObfAttempt times one warm GenObf attempt — candidate
// selection, perturbation into the slot's flat arrays and the
// obfuscation check through the trial's view — on the 3.6k-node brightkite-s graph of the
// anon-search benchmark workload, a fresh RNG stream per iteration.
func BenchmarkGenObfAttempt(b *testing.B) {
	a := warmAttempt(b, brightkiteGraph(b, 3600), 0.001)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.attempt(uint64(i)+2, 0.001, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAttemptAllocationsSizeIndependent: once the trial's arrays and the
// selection buffers have grown, repeating an attempt allocates the same
// handful of objects whatever the graph size — nothing per vertex, per
// edge or per candidate. Each run is traced under a fresh attempt span,
// as genObf traces it.
func TestAttemptAllocationsSizeIndependent(t *testing.T) {
	allocs := func(n int) float64 {
		a := warmAttempt(t, brightkiteGraph(t, n), 0.3)
		return testing.AllocsPerRun(20, func() {
			if _, err := a.attempt(1, 0.3, obs.NewSpan("attempt")); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(400), allocs(3600)
	if small != large {
		t.Fatalf("a warm attempt allocates %v objects at 400 vertices but %v at 3600", small, large)
	}
	t.Logf("a warm attempt allocates %v objects", small)
}

// FuzzQSampler: the guide-table search returns sort.SearchFloat64s' index
// over the cumulative weights, clamped to n-1, for every x — and so
// sampleVertex draws the vertex the binary search drew from the same
// rng.Float64(). Each weight byte below 64 is a zero weight (an excluded
// vertex), the rest span twelve binary orders of magnitude; x runs over 0,
// the total and just below it, every cumulative weight and bucket edge
// and their float neighbors, and a fuzzed fraction of the total.
func FuzzQSampler(f *testing.F) {
	f.Add([]byte{200}, 0.5)
	f.Add([]byte{0, 0, 0}, 0.25)
	f.Add([]byte{0, 0, 130, 0, 0, 255, 64, 0}, 0.999)
	f.Add([]byte{65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75}, 0.0)
	f.Add([]byte{255, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 64}, 0.7)
	f.Fuzz(func(t *testing.T, weights []byte, frac float64) {
		if len(weights) == 0 || len(weights) > 4096 {
			return
		}
		cum := make([]float64, len(weights))
		var total float64
		for i, b := range weights {
			if b >= 64 {
				total += math.Ldexp(float64(b&15+1), int(b>>4)-8)
			}
			cum[i] = total
		}
		s := newQSampler(cum)
		check := func(x float64) {
			want := sort.SearchFloat64s(cum, x)
			if want >= len(cum) {
				want = len(cum) - 1
			}
			if got := s.search(x); got != want {
				t.Fatalf("search(%v) = %d, want %d (cum %v)", x, got, want, cum)
			}
		}
		around := func(x float64) {
			check(x)
			check(math.Nextafter(x, math.Inf(-1)))
			check(math.Nextafter(x, math.Inf(1)))
		}
		check(0)
		around(total)
		for _, c := range cum {
			around(c)
		}
		if s.scale > 0 {
			for b := 1; b < len(cum); b++ {
				around(float64(b) / s.scale)
			}
		}
		if frac = math.Abs(frac); frac < 1 {
			check(frac * total)
		}

		st := &searchInputs{qs: s}
		rng := rand.New(rand.NewPCG(uint64(len(weights)), 1))
		ref := rand.New(rand.NewPCG(uint64(len(weights)), 1))
		for i := 0; i < 64; i++ {
			want := sort.SearchFloat64s(cum, ref.Float64()*total)
			if want >= len(cum) {
				want = len(cum) - 1
			}
			if got := st.sampleVertex(rng); int(got) != want {
				t.Fatalf("draw %d: sampleVertex = %d, binary search drew %d", i, got, want)
			}
		}
	})
}

// TestGenObfNeverWritesEscapedGraphs: the input, and every graph a GenObf
// call has returned, keep their fingerprint through all later calls —
// trials only read the input, and a winner is a graph built afresh.
func TestGenObfNeverWritesEscapedGraphs(t *testing.T) {
	g := testGraph(t, 5)
	inputFP := uncertain.Fingerprint(g)
	st := newState(t, g, Params{K: 25, Epsilon: 0.04, Samples: 60, Seed: 11, Variant: ME})
	type escaped struct {
		g  *uncertain.Graph
		fp uint64
	}
	var out []escaped
	res := &Result{}
	for _, sigma := range []float64{0.001, 0.3, 0.05, 0.6, 0.2, 1, 0.4, 0.15} {
		if o := st.genObf(context.Background(), sigma, st.seq, false, res); o.ok() {
			out = append(out, escaped{o.graph, uncertain.Fingerprint(o.graph)})
		}
	}
	if len(out) < 2 {
		t.Fatalf("only %d of the calls returned a graph; the test needs two", len(out))
	}
	if got := uncertain.Fingerprint(g); got != inputFP {
		t.Fatalf("input fingerprint %#x, was %#x", got, inputFP)
	}
	for i, e := range out {
		if got := uncertain.Fingerprint(e.g); got != e.fp {
			t.Fatalf("returned graph %d: fingerprint %#x, was %#x when returned", i, got, e.fp)
		}
	}
}

// TestGenObfTieGoesToLowestSeq: at k=3, σ=0.2 every attempt on
// testGraph(5) reaches the same ε~, so each call's winner is decided by
// the tie rule alone. On any number of workers it must be the call's
// first attempt, the one the serial strict-< scan keeps: three calls of
// 16 attempts publish the serial run's bytes, and the serial run's first
// call publishes what attempt seq 1 builds.
func TestGenObfTieGoesToLowestSeq(t *testing.T) {
	g := testGraph(t, 5)
	const sigma = 0.2
	params := func(workers int) Params {
		return Params{K: 3, Epsilon: 0.5, Seed: 11, Variant: ME, Attempts: 16, Workers: workers}
	}
	a := newState(t, g, params(1)).slots[0]
	rep, err := a.attempt(1, sigma, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := a.publish(a.trial.edges)
	serial := newState(t, g, params(1))
	var want [][]byte
	for call := 0; call < 3; call++ {
		out := serial.genObf(context.Background(), sigma, serial.seq, false, &Result{})
		if out.epsilon != rep.EpsilonTilde {
			t.Fatalf("serial call %d: ε~ %v, want the tie value %v", call, out.epsilon, rep.EpsilonTilde)
		}
		want = append(want, encodeGraph(t, out.graph))
	}
	if !bytes.Equal(want[0], encodeGraph(t, first)) {
		t.Fatal("the serial first call did not publish its first attempt's graph")
	}
	for _, workers := range []int{2, 3, 8} {
		st := newState(t, g, params(workers))
		for call := range want {
			out := st.genObf(context.Background(), sigma, st.seq, false, &Result{})
			if out.epsilon != rep.EpsilonTilde || !bytes.Equal(encodeGraph(t, out.graph), want[call]) {
				t.Fatalf("%d workers, call %d: published another attempt than the serial scan", workers, call)
			}
		}
	}
}

// TestTrialViewMatchesPublishedGraph: the check reads a trial through its
// per-vertex view, never through a graph. Over seeds, σ values and both
// perturbation schemes (ME and RS), the report on the trial must equal
// the report on the graph publish builds from it bit for bit, and every
// vertex must list the same incident probabilities in the same order in
// both. The sparse input is mostly isolated vertices, so injected edges
// share endpoints and some vertices have injected edges only; the test
// fails if neither input ever showed either case.
func TestTrialViewMatchesPublishedGraph(t *testing.T) {
	sparse := uncertain.New(40)
	for v := uncertain.NodeID(1); v <= 8; v++ {
		sparse.MustAddEdge(0, v, 0.1*float64(v))
	}
	sparse.MustAddEdge(9, 10, 0.7)
	var shared, injectedOnly bool
	for _, g := range []*uncertain.Graph{testGraph(t, 17), sparse} {
		for _, variant := range []Variant{ME, RS} {
			for _, seed := range []uint64{1, 2, 3} {
				p := Params{K: 4, Epsilon: 0.1, Samples: 50, Seed: seed, Variant: variant, SizeMultiplier: 3}
				a := newState(t, g, p).slots[0]
				for _, sigma := range []float64{0.05, 0.3, 1} {
					for seq := uint64(1); seq <= 3; seq++ {
						got, err := a.attempt(seq, sigma, nil)
						if err != nil {
							t.Fatal(err)
						}
						pub := a.publish(a.trial.edges)
						want, err := privacy.CheckObfuscation(pub, a.prop, a.p.K)
						if err != nil {
							t.Fatal(err)
						}
						where := func() string {
							return fmt.Sprintf("n=%d %v seed %d σ=%v seq %d", g.NumNodes(), variant, seed, sigma, seq)
						}
						if !sameReport(got, want) {
							t.Fatalf("%s: report on the trial %+v, on its graph %+v", where(), got, want)
						}
						if a.trial.MaxStructuralDegree() != pub.MaxStructuralDegree() {
							t.Fatalf("%s: max degree %d, graph's %d", where(), a.trial.MaxStructuralDegree(), pub.MaxStructuralDegree())
						}
						for v := range uncertain.NodeID(g.NumNodes()) {
							view, graph := a.trial.IncidentProbs(v, nil), pub.IncidentProbs(v, nil)
							if !slices.Equal(view, graph) {
								t.Fatalf("%s: vertex %d lists %v, its graph %v", where(), v, view, graph)
							}
							injected := len(view) - g.Degree(v)
							shared = shared || injected > 1
							injectedOnly = injectedOnly || injected > 0 && g.Degree(v) == 0
						}
					}
				}
			}
		}
	}
	if !shared || !injectedOnly {
		t.Fatalf("no trial covered the view's edge cases: injected edges sharing an endpoint %v, a vertex with injected edges only %v", shared, injectedOnly)
	}
}

// sameReport reports whether two obfuscation reports are equal bit for
// bit.
func sameReport(a, b privacy.ObfuscationReport) bool {
	return a.K == b.K && a.NonObfuscated == b.NonObfuscated &&
		math.Float64bits(a.EpsilonTilde) == math.Float64bits(b.EpsilonTilde) &&
		slices.EqualFunc(a.EntropyByDegree, b.EntropyByDegree, func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		})
}
