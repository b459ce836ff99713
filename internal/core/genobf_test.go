package core

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

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
	cands := st.selectCandidates(rng)
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
	if len(st.excl) == 0 {
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
		cands := st.selectCandidates(rng)
		pub := st.perturb(cands, 0.8, rng)
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
	out := st.genObf(context.Background(), 0.05, res)
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
	cands := st.selectCandidates(rng)
	pub := st.perturb(cands, 1e-9, rng)
	if pub.NumEdges() > g.NumEdges() {
		t.Fatalf("near-zero noise should not add edges: %d -> %d", g.NumEdges(), pub.NumEdges())
	}
}
