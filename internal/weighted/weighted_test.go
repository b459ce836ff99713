package weighted

import (
	"math"
	"math/rand/v2"
	"testing"

	"chameleon/internal/core"
	"chameleon/internal/gen"
	"chameleon/internal/uncertain"
)

func randNew(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 1)) }

func lineGraph(t *testing.T, probs, weights []float64) *Graph {
	t.Helper()
	g := uncertain.New(len(probs) + 1)
	for i, p := range probs {
		g.MustAddEdge(uncertain.NodeID(i), uncertain.NodeID(i+1), p)
	}
	wg, err := New(g, weights)
	if err != nil {
		t.Fatal(err)
	}
	return wg
}

func TestNewValidation(t *testing.T) {
	g := uncertain.New(3)
	g.MustAddEdge(0, 1, 0.5)
	if _, err := New(g, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := New(g, []float64{-1}); err == nil {
		t.Fatal("negative weight should error")
	}
	if _, err := New(g, []float64{math.NaN()}); err == nil {
		t.Fatal("NaN weight should error")
	}
	if _, err := New(g, []float64{math.Inf(1)}); err == nil {
		t.Fatal("infinite weight should error")
	}
	wg, err := New(g, []float64{2.5})
	if err != nil {
		t.Fatal(err)
	}
	if wg.Weight(0) != 2.5 {
		t.Fatalf("Weight(0) = %v", wg.Weight(0))
	}
}

func TestWeightsAreCopied(t *testing.T) {
	g := uncertain.New(2)
	g.MustAddEdge(0, 1, 0.5)
	in := []float64{3}
	wg, err := New(g, in)
	if err != nil {
		t.Fatal(err)
	}
	in[0] = 99
	if wg.Weight(0) != 3 {
		t.Fatal("New must copy the weight vector")
	}
	out := wg.Weights()
	out[0] = 42
	if wg.Weight(0) != 3 {
		t.Fatal("Weights must return a copy")
	}
}

func TestUniform(t *testing.T) {
	g := uncertain.New(3)
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(1, 2, 0.5)
	wg := Uniform(g)
	if wg.Weight(0) != 1 || wg.Weight(1) != 1 {
		t.Fatal("uniform weights should be 1")
	}
	if wg.Uncertain() != g {
		t.Fatal("Uncertain should return the wrapped graph")
	}
}

func TestDijkstraPath(t *testing.T) {
	wg := lineGraph(t, []float64{1, 1, 1}, []float64{2, 3, 4})
	w := wg.Uncertain().MostProbableWorld()
	dist := wg.Dijkstra(w, 0)
	want := []float64{0, 2, 5, 9}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist[%d] = %v, want %v", i, dist[i], want[i])
		}
	}
}

func TestDijkstraPicksCheaperRoute(t *testing.T) {
	// 0-1-2 with weights 1+1 = 2 beats the direct 0-2 edge of weight 5.
	g := uncertain.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 2, 1)
	wg, err := New(g, []float64{1, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	dist := wg.Dijkstra(g.MostProbableWorld(), 0)
	if dist[2] != 2 {
		t.Fatalf("dist[2] = %v, want 2 (via node 1)", dist[2])
	}
}

func TestDijkstraRespectsWorld(t *testing.T) {
	wg := lineGraph(t, []float64{1, 1}, []float64{1, 1})
	w := wg.Uncertain().WorldFromMask([]bool{true, false})
	dist := wg.Dijkstra(w, 0)
	if dist[1] != 1 {
		t.Fatalf("dist[1] = %v", dist[1])
	}
	if !math.IsInf(dist[2], 1) {
		t.Fatalf("absent edge should disconnect node 2, dist = %v", dist[2])
	}
}

func TestExpectedTravelDeterministicLine(t *testing.T) {
	// Certain path with unit weights: expected cost equals the hop
	// distance average; reachability is 1.
	wg := lineGraph(t, []float64{1, 1, 1}, []float64{1, 1, 1})
	stats := wg.ExpectedTravel(Options{Samples: 10, Sources: 4, Seed: 1})
	if stats.Reachability != 1 {
		t.Fatalf("reachability = %v, want 1", stats.Reachability)
	}
	if stats.MeanCost <= 0 || stats.MeanCost > 3 {
		t.Fatalf("mean cost = %v out of (0,3]", stats.MeanCost)
	}
}

func TestExpectedTravelUncertainReachability(t *testing.T) {
	// Single edge with p=0.3: reachability over the 2-node graph is ~0.3.
	g := uncertain.New(2)
	g.MustAddEdge(0, 1, 0.3)
	wg := Uniform(g)
	stats := wg.ExpectedTravel(Options{Samples: 4000, Sources: 2, Seed: 2})
	if math.Abs(stats.Reachability-0.3) > 0.03 {
		t.Fatalf("reachability = %v, want ~0.3", stats.Reachability)
	}
	if math.Abs(stats.MeanCost-1) > 1e-9 {
		t.Fatalf("mean cost over reachable pairs = %v, want 1", stats.MeanCost)
	}
}

func TestExpectedTravelTinyGraph(t *testing.T) {
	g := uncertain.New(1)
	wg := Uniform(g)
	stats := wg.ExpectedTravel(Options{Samples: 5})
	if stats.MeanCost != 0 || stats.Reachability != 0 {
		t.Fatalf("single-node stats = %+v", stats)
	}
}

func travelGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := gen.ErdosRenyi(40, 90, gen.UniformProbs(0.2, 0.9), randNew(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := randNew(5)
	weights := make([]float64, g.NumEdges())
	for i := range weights {
		weights[i] = 1 + rng.Float64()*9
	}
	wg, err := New(g, weights)
	if err != nil {
		t.Fatal(err)
	}
	return wg
}

// TestExpectedTravelPinned pins the exact bits of ExpectedTravel on a
// fixed graph and seed: the sampled worlds, the Dijkstra sources drawn
// after each world, and the order of reduction are part of the
// reproducibility contract.
func TestExpectedTravelPinned(t *testing.T) {
	wg := travelGraph(t)
	got := wg.ExpectedTravel(Options{Samples: 30, Sources: 3, Seed: 8, Workers: 2})
	want := [2]uint64{0x40342f47fa7e2c02, 0x3fe821d772cc821d}
	if bits := [2]uint64{math.Float64bits(got.MeanCost), math.Float64bits(got.Reachability)}; bits != want {
		t.Fatalf("ExpectedTravel = %+v, bits %#x; want bits %#x", got, bits, want)
	}
}

func TestExpectedTravelParallelMatchesSerial(t *testing.T) {
	wg := travelGraph(t)
	serial := wg.ExpectedTravel(Options{Samples: 50, Sources: 4, Seed: 3, Workers: 1})
	parallel := wg.ExpectedTravel(Options{Samples: 50, Sources: 4, Seed: 3, Workers: 8})
	if serial != parallel {
		t.Fatalf("ExpectedTravel differs across workers: %+v vs %+v", serial, parallel)
	}
}

func TestWithProbabilitiesRebindsWeights(t *testing.T) {
	// A weighted road network anonymized by Chameleon keeps its weights
	// on surviving edges; injected edges get the default weight.
	g := uncertain.New(4)
	g.MustAddEdge(0, 1, 0.9)
	g.MustAddEdge(1, 2, 0.8)
	g.MustAddEdge(2, 3, 0.7)
	wg, err := New(g, []float64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	pub := g.Clone()
	if err := pub.SetProb(0, 0.4); err != nil {
		t.Fatal(err)
	}
	if err := pub.AddEdge(0, 3, 0.2); err != nil { // injected by anonymizer
		t.Fatal(err)
	}
	rebound, err := wg.WithProbabilities(pub, 99)
	if err != nil {
		t.Fatal(err)
	}
	if got := rebound.Weight(pub.EdgeIndex(1, 2)); got != 20 {
		t.Fatalf("surviving edge weight = %v, want 20", got)
	}
	if got := rebound.Weight(pub.EdgeIndex(0, 3)); got != 99 {
		t.Fatalf("injected edge weight = %v, want default 99", got)
	}
}

func TestWithProbabilitiesErrors(t *testing.T) {
	g := uncertain.New(3)
	g.MustAddEdge(0, 1, 0.5)
	wg := Uniform(g)
	if _, err := wg.WithProbabilities(uncertain.New(5), 1); err == nil {
		t.Fatal("vertex mismatch should error")
	}
	if _, err := wg.WithProbabilities(g.Clone(), -1); err == nil {
		t.Fatal("negative default weight should error")
	}
}

// TestAnonymizedRoadNetworkKeepsTravelStructure is the end-to-end weighted
// scenario: anonymize the existence probabilities, rebind the weights, and
// check the expected travel cost stays close while privacy is gained.
func TestAnonymizedRoadNetworkKeepsTravelStructure(t *testing.T) {
	// Grid road network with certain-ish roads and varying travel times.
	const side = 8
	g := uncertain.New(side * side)
	var weights []float64
	id := func(r, c int) uncertain.NodeID { return uncertain.NodeID(r*side + c) }
	wv := 0
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				g.MustAddEdge(id(r, c), id(r, c+1), 0.7)
				weights = append(weights, float64(1+wv%5))
				wv++
			}
			if r+1 < side {
				g.MustAddEdge(id(r, c), id(r+1, c), 0.7)
				weights = append(weights, float64(1+wv%5))
				wv++
			}
		}
	}
	wg, err := New(g, weights)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Anonymize(g, core.Params{K: 4, Epsilon: 0.05, Samples: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pubW, err := wg.WithProbabilities(res.Graph, 3) // median weight for new roads
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Samples: 100, Sources: 8, Seed: 9}
	before := wg.ExpectedTravel(o)
	after := pubW.ExpectedTravel(o)
	if before.MeanCost <= 0 || after.MeanCost <= 0 {
		t.Fatalf("costs should be positive: %+v %+v", before, after)
	}
	if rel := math.Abs(after.MeanCost-before.MeanCost) / before.MeanCost; rel > 0.5 {
		t.Fatalf("travel cost distorted by %.0f%%", rel*100)
	}
}

func BenchmarkDijkstra(b *testing.B) {
	g := uncertain.New(1000)
	rng := randNew(3)
	for g.NumEdges() < 4000 {
		u := uncertain.NodeID(rng.IntN(1000))
		v := uncertain.NodeID(rng.IntN(1000))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, 1)
	}
	weights := make([]float64, g.NumEdges())
	for i := range weights {
		weights[i] = 1 + rng.Float64()*9
	}
	wg, err := New(g, weights)
	if err != nil {
		b.Fatal(err)
	}
	w := g.MostProbableWorld()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wg.Dijkstra(w, 0)
	}
}
