package reliability

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"chameleon/internal/gen"
	"chameleon/internal/uncertain"
)

// naiveReliabilities counts, over row-major labels, the worlds in which
// each v shares src's component, and scales the counts the way
// ReliabilityVector does.
func naiveReliabilities(labels [][]int32, src int) []float64 {
	nv := len(labels[0])
	out := make([]float64, nv)
	inv := 1 / float64(len(labels))
	for v := range out {
		c := 0
		for _, l := range labels {
			if l[v] == l[src] {
				c++
			}
		}
		out[v] = float64(c) * inv
	}
	out[src] = 1
	return out
}

// naivePair is PairReliability's value from the same count.
func naivePair(labels [][]int32, u, v int) float64 {
	c := 0
	for _, l := range labels {
		if l[u] == l[v] {
			c++
		}
	}
	return float64(c) / float64(len(labels))
}

// hubGraphs covers the shapes the hub planes branch on: a giant
// component, no giant component, a hub stranded in a tiny component, and
// isolated vertices.
func hubGraphs(t testing.TB) map[string]*uncertain.Graph {
	sparse, err := gen.BarabasiAlbert(300, 1, gen.SmallProbs(0.29), rand.New(rand.NewPCG(4, 4)))
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 0 has the largest degree but its edges almost never appear;
	// the cycle on 7..46 is almost always whole.
	stranded := uncertain.New(50)
	for leaf := 1; leaf <= 6; leaf++ {
		stranded.MustAddEdge(0, uncertain.NodeID(leaf), 0.02)
	}
	for v := 7; v < 47; v++ {
		next := v + 1
		if next == 47 {
			next = 7
		}
		stranded.MustAddEdge(uncertain.NodeID(v), uncertain.NodeID(next), 0.97)
	}
	// Vertices 60..64 have no edges.
	isolated := uncertain.New(65)
	for _, e := range randomGraph(23, 60, 150).Edges() {
		isolated.MustAddEdge(e.U, e.V, e.P)
	}
	return map[string]*uncertain.Graph{
		"giant":    randomGraph(21, 80, 240),
		"sparse":   sparse,
		"stranded": stranded,
		"isolated": isolated,
	}
}

// TestHubPlanesMatchNaiveCount: ReliabilityVector (cached with hub
// planes, cached before any warm-up, and uncached) and cached
// PairReliability equal a naive count over SampleLabels for every source,
// at budgets that fill whole plane words and budgets that end mid-word,
// under every sampling mode.
func TestHubPlanesMatchNaiveCount(t *testing.T) {
	modes := []uncertain.SamplingMode{uncertain.SampleIndependent, uncertain.SampleAntithetic,
		uncertain.SampleStratified, uncertain.SampleCoupled}
	budgets := []int{100, 130, 512}
	if testing.Short() || raceEnabled {
		budgets = []int{130} // mid-word; the race pass needs no more
	}
	var planes, plain int
	for name, g := range hubGraphs(t) {
		for _, mode := range modes {
			for _, n := range budgets {
				t.Run(fmt.Sprintf("%s/mode=%d/N=%d", name, mode, n), func(t *testing.T) {
					base := Estimator{Samples: n, Seed: 9, Mode: mode, Workers: 2}
					p, q := checkAgainstNaive(t, g, base)
					planes, plain = planes+p, plain+q
				})
			}
		}
	}
	if planes == 0 || plain == 0 {
		t.Fatalf("%d sources counted with planes and %d with the plain compare; want both paths", planes, plain)
	}
}

// TestHubPlanesAdaptive: an adaptive labeling keeps its budget-wide rows
// but counts only the worlds before the stopping point; the planes must
// count that prefix alone.
func TestHubPlanesAdaptive(t *testing.T) {
	g := hubGraphs(t)["giant"]
	base := Estimator{Seed: 3, TargetRSE: 0.05, MaxSamples: 4000, Workers: 2}
	if n := len(base.SampleLabels(g)); n >= base.maxSamples() {
		t.Fatalf("adaptive labeling counted %d worlds, want a stop before the %d cap", n, base.maxSamples())
	}
	if planes, _ := checkAgainstNaive(t, g, base); planes == 0 {
		t.Fatal("no source was counted with hub planes")
	}
}

// checkAgainstNaive compares every source's answers with the naive count
// and returns how many sources the warm cache counted with hub planes and
// how many with the plain compare.
func checkAgainstNaive(t *testing.T, g *uncertain.Graph, base Estimator) (planes, plain int) {
	t.Helper()
	labels := base.SampleLabels(g)
	warm, cold := base, base
	warm.Cache, cold.Cache = NewLabelCache(), NewLabelCache()
	warm.WarmCache(g)
	ls := warm.cachedLabels(g)
	for src := 0; src < g.NumNodes(); src++ {
		with := 0
		for s := range ls.samples {
			if ls.planes[src*ls.words+s/64]>>(s%64)&1 == 1 {
				with++
			}
		}
		if 2*with >= ls.samples {
			planes++
		} else {
			plain++
		}
		want := naiveReliabilities(labels, src)
		ests := []struct {
			name string
			est  Estimator
		}{{"warm", warm}, {"cold", cold}, {"uncached", base}}
		if src%8 != 0 {
			ests = ests[:2] // an uncached call resamples every world
		}
		for _, c := range ests {
			got := c.est.ReliabilityVector(g, uncertain.NodeID(src))
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s: ReliabilityVector(%d)[%d] = %v, naive %v", c.name, src, v, got[v], want[v])
				}
			}
		}
		v := (src*31 + 7) % g.NumNodes()
		for _, u := range []int{src, v} {
			if got, want := warm.PairReliability(g, uncertain.NodeID(src), uncertain.NodeID(u)), naivePair(labels, src, u); got != want {
				t.Fatalf("cached PairReliability(%d, %d) = %v, naive %v", src, u, got, want)
			}
		}
	}
	return planes, plain
}

// TestHubPlanesTruncatedMidWord builds a label set whose counted prefix
// ends inside a plane word while the rows run on past it, with labels
// past the prefix that would match everywhere: none of them may count.
func TestHubPlanesTruncatedMidWord(t *testing.T) {
	g := randomGraph(31, 40, 90)
	const stride, counted = 200, 150
	est := Estimator{Samples: stride, Seed: 5}
	labels := est.SampleLabels(g)
	ls := new(labelSet)
	ls.grow(g.NumNodes(), stride)
	for s, l := range labels {
		for v, c := range l {
			if s >= counted {
				c = 0 // every vertex together: counting these would show
			}
			ls.lab[v*stride+s] = c
		}
	}
	ls.truncate(counted)
	ls.buildPlanes(g)
	out := make([]float64, g.NumNodes())
	for src := 0; src < g.NumNodes(); src++ {
		want := naiveReliabilities(labels[:counted], src)
		ls.reliabilities(src, out, 1/float64(counted))
		out[src] = 1
		for v := range want {
			if out[v] != want[v] {
				t.Fatalf("src %d: reliability[%d] = %v, naive %v", src, v, out[v], want[v])
			}
		}
	}
}

// TestUncachedBackToBack: pooled label sets are reused across graphs of
// different sizes; nothing of one call's labels may leak into the next.
func TestUncachedBackToBack(t *testing.T) {
	gs := []*uncertain.Graph{randomGraph(41, 70, 200), smallGraph(), randomGraph(42, 30, 45)}
	est := Estimator{Samples: 130, Seed: 8, Workers: 1}
	for round := 0; round < 3; round++ {
		for i, g := range gs {
			labels := est.SampleLabels(g)
			src := (round + i) % g.NumNodes()
			want := naiveReliabilities(labels, src)
			got := est.ReliabilityVector(g, uncertain.NodeID(src))
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("round %d graph %d: ReliabilityVector(%d)[%d] = %v, naive %v", round, i, src, v, got[v], want[v])
				}
			}
		}
	}
}

// TestCachedQueriesConcurrent: many goroutines querying one cold cache
// race to build its labels and hub planes; every answer must still be
// the naive count. Run under -race.
func TestCachedQueriesConcurrent(t *testing.T) {
	g := hubGraphs(t)["giant"]
	base := Estimator{Samples: 130, Seed: 12, Workers: 2}
	labels := base.SampleLabels(g)
	est := base
	est.Cache = NewLabelCache()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				src := (w*20 + i) % g.NumNodes()
				want := naiveReliabilities(labels, src)
				got := est.ReliabilityVector(g, uncertain.NodeID(src))
				for v := range want {
					if got[v] != want[v] {
						errs <- fmt.Errorf("ReliabilityVector(%d)[%d] = %v, naive %v", src, v, got[v], want[v])
						return
					}
				}
				u := (src + 13) % g.NumNodes()
				if got, want := est.PairReliability(g, uncertain.NodeID(src), uncertain.NodeID(u)), naivePair(labels, src, u); got != want {
					errs <- fmt.Errorf("PairReliability(%d, %d) = %v, naive %v", src, u, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
