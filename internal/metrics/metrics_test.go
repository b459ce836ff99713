package metrics

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"chameleon/internal/gen"
	"chameleon/internal/uncertain"
)

func certainGraph(t *testing.T, n int, edges ...[2]uncertain.NodeID) *uncertain.Graph {
	t.Helper()
	g := uncertain.New(n)
	for _, e := range edges {
		g.MustAddEdge(e[0], e[1], 1)
	}
	return g
}

func TestAverageDegreeClosedForm(t *testing.T) {
	g := uncertain.New(4)
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(1, 2, 0.25)
	want := 2 * 0.75 / 4
	if got := AverageDegree(g); math.Abs(got-want) > 1e-12 {
		t.Fatalf("AverageDegree = %v, want %v", got, want)
	}
}

func TestMaxDegreeDeterministic(t *testing.T) {
	g := certainGraph(t, 5, [2]uncertain.NodeID{0, 1}, [2]uncertain.NodeID{0, 2}, [2]uncertain.NodeID{0, 3})
	o := Options{Samples: 20, Seed: 1}
	if got := o.MaxDegree(g); got != 3 {
		t.Fatalf("MaxDegree = %v, want 3", got)
	}
}

func TestMaxDegreeUncertain(t *testing.T) {
	// Star with p=0.5 edges: E[max degree] is between 0 and 4.
	g := uncertain.New(5)
	for i := 1; i < 5; i++ {
		g.MustAddEdge(0, uncertain.NodeID(i), 0.5)
	}
	o := Options{Samples: 4000, Seed: 2}
	got := o.MaxDegree(g)
	// Max degree = center degree ~ Binomial(4, 0.5) unless 0; its mean
	// is slightly above 2 (max with leaf degrees).
	if got < 1.8 || got > 2.6 {
		t.Fatalf("E[max degree] = %v, want ~2.1", got)
	}
}

func TestDegreeDistributionSumsToNodes(t *testing.T) {
	g, err := gen.ErdosRenyi(30, 60, gen.UniformProbs(0.2, 0.8), rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Samples: 200, Seed: 3}
	dist := o.DegreeDistribution(g)
	var total float64
	for _, c := range dist {
		total += c
	}
	if math.Abs(total-30) > 1e-9 {
		t.Fatalf("degree distribution mass = %v, want 30", total)
	}
}

func TestDegreeDistributionDeterministicGraph(t *testing.T) {
	g := certainGraph(t, 4, [2]uncertain.NodeID{0, 1}, [2]uncertain.NodeID{2, 3})
	o := Options{Samples: 10, Seed: 4}
	dist := o.DegreeDistribution(g)
	if dist[1] != 4 {
		t.Fatalf("all four vertices have degree 1, got %v", dist)
	}
}

func TestDistancesPathGraph(t *testing.T) {
	// Certain path of 3: avg distance 8/6, effective diameter <= 2.
	g := certainGraph(t, 3, [2]uncertain.NodeID{0, 1}, [2]uncertain.NodeID{1, 2})
	o := Options{Samples: 5, Seed: 5}
	o.ANF.Trials = 128
	d := o.Distances(g)
	if math.Abs(d.AverageDistance-8.0/6.0) > 0.4 {
		t.Fatalf("AverageDistance = %v, want ~%v", d.AverageDistance, 8.0/6.0)
	}
	if d.EffectiveDiameter <= 0 || d.EffectiveDiameter > 2.5 {
		t.Fatalf("EffectiveDiameter = %v", d.EffectiveDiameter)
	}
}

func TestDistancesScaleWithGraph(t *testing.T) {
	longPath := uncertain.New(60)
	for i := 0; i < 59; i++ {
		longPath.MustAddEdge(uncertain.NodeID(i), uncertain.NodeID(i+1), 1)
	}
	shortPath := uncertain.New(10)
	for i := 0; i < 9; i++ {
		shortPath.MustAddEdge(uncertain.NodeID(i), uncertain.NodeID(i+1), 1)
	}
	o := Options{Samples: 3, Seed: 6}
	o.ANF.Trials = 64
	long := o.Distances(longPath)
	short := o.Distances(shortPath)
	if long.AverageDistance <= short.AverageDistance {
		t.Fatalf("longer path should have larger avg distance: %v vs %v",
			long.AverageDistance, short.AverageDistance)
	}
}

func TestClusteringTriangle(t *testing.T) {
	g := certainGraph(t, 3, [2]uncertain.NodeID{0, 1}, [2]uncertain.NodeID{1, 2}, [2]uncertain.NodeID{0, 2})
	o := Options{Samples: 10, Seed: 7}
	if got := o.ClusteringCoefficient(g); math.Abs(got-1) > 1e-12 {
		t.Fatalf("triangle clustering = %v, want 1", got)
	}
}

func TestClusteringStar(t *testing.T) {
	g := certainGraph(t, 4, [2]uncertain.NodeID{0, 1}, [2]uncertain.NodeID{0, 2}, [2]uncertain.NodeID{0, 3})
	o := Options{Samples: 10, Seed: 8}
	if got := o.ClusteringCoefficient(g); got != 0 {
		t.Fatalf("star clustering = %v, want 0", got)
	}
}

func TestClusteringKnownMix(t *testing.T) {
	// Triangle 0-1-2 plus pendant 2-3: local CCs are 1, 1, 1/3, 0 -> 7/12.
	g := certainGraph(t, 4,
		[2]uncertain.NodeID{0, 1}, [2]uncertain.NodeID{1, 2},
		[2]uncertain.NodeID{0, 2}, [2]uncertain.NodeID{2, 3})
	o := Options{Samples: 10, Seed: 9}
	want := 7.0 / 12.0
	if got := o.ClusteringCoefficient(g); math.Abs(got-want) > 1e-12 {
		t.Fatalf("clustering = %v, want %v", got, want)
	}
}

func TestClusteringUncertainBetween(t *testing.T) {
	// Triangle with p=0.5 edges: expected clustering strictly between 0
	// and 1.
	g := uncertain.New(3)
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(1, 2, 0.5)
	g.MustAddEdge(0, 2, 0.5)
	o := Options{Samples: 2000, Seed: 10}
	got := o.ClusteringCoefficient(g)
	// Each vertex has CC 1 iff all three edges present (prob 1/8 given
	// its two incident edges present)... overall E ~ 3 * P(all three) / 3 = 1/8.
	if math.Abs(got-0.125) > 0.03 {
		t.Fatalf("uncertain triangle clustering = %v, want ~0.125", got)
	}
}

func TestRelativeError(t *testing.T) {
	cases := []struct {
		orig, meas, want float64
	}{
		{10, 12, 0.2},
		{10, 8, 0.2},
		{10, 10, 0},
		{0, 0, 0},
		{0, 5, 1},
		{-10, -8, 0.2},
	}
	for _, c := range cases {
		if got := RelativeError(c.orig, c.meas); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("RelativeError(%v, %v) = %v, want %v", c.orig, c.meas, got, c.want)
		}
	}
}

// estimators lists every Monte Carlo estimator of the package, each
// flattened to the float64 outputs it returns.
var estimators = []struct {
	name string
	run  func(o Options, g *uncertain.Graph) []float64
}{
	{"MaxDegree", func(o Options, g *uncertain.Graph) []float64 { return []float64{o.MaxDegree(g)} }},
	{"DegreeDistribution", func(o Options, g *uncertain.Graph) []float64 { return o.DegreeDistribution(g) }},
	{"Distances", func(o Options, g *uncertain.Graph) []float64 {
		d := o.Distances(g)
		return []float64{d.AverageDistance, d.EffectiveDiameter}
	}},
	{"ClusteringCoefficient", func(o Options, g *uncertain.Graph) []float64 { return []float64{o.ClusteringCoefficient(g)} }},
	{"Triangles", func(o Options, g *uncertain.Graph) []float64 { return []float64{o.Triangles(g)} }},
}

func estimatorGraph(t *testing.T) *uncertain.Graph {
	t.Helper()
	g, err := gen.ErdosRenyi(40, 100, gen.UniformProbs(0.1, 0.9), rand.New(rand.NewPCG(2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestParallelMatchesSerial(t *testing.T) {
	g := estimatorGraph(t)
	serial := Options{Samples: 100, Seed: 11, Workers: 1}
	parallel := Options{Samples: 100, Seed: 11, Workers: 8}
	for _, c := range estimators {
		if a, b := c.run(serial, g), c.run(parallel, g); !slices.Equal(a, b) {
			t.Fatalf("%s differs across workers: %v vs %v", c.name, a, b)
		}
	}
}

// TestEstimatorsPinned pins the exact bits every estimator returns for a
// fixed graph and seed: the sampled worlds, their order of reduction and
// the per-world statistics are all part of the reproducibility contract.
func TestEstimatorsPinned(t *testing.T) {
	g := estimatorGraph(t)
	want := map[string][]uint64{
		"MaxDegree": {0x4017888888888889},
		"DegreeDistribution": {0x4001333333333333, 0x4021a22222222222, 0x4029888888888889, 0x40225dddddddddde,
			0x4012000000000000, 0x3ffbbbbbbbbbbbbc, 0x3fe3bbbbbbbbbbbc, 0x3fc7777777777777,
			0x3fa1111111111111, 0x3f91111111111111, 0},
		"Distances":             {0x40101aa7d73dba72, 0x401769a857d75985},
		"ClusteringCoefficient": {0x3fb0c60f5d8c0889},
		"Triangles":             {0x4005bbbbbbbbbbbc},
	}
	for _, workers := range []int{1, 3} {
		o := Options{Samples: 60, Seed: 5, Workers: workers}
		for _, c := range estimators {
			got := c.run(o, g)
			bits := make([]uint64, len(got))
			for i, x := range got {
				bits[i] = math.Float64bits(x)
			}
			if !slices.Equal(bits, want[c.name]) {
				t.Errorf("%s (workers %d) = %v, bits %#x; want bits %#x", c.name, workers, got, bits, want[c.name])
			}
		}
	}
}

func TestExpectedDegreeDistributionMatchesMC(t *testing.T) {
	g, err := gen.ErdosRenyi(25, 50, gen.UniformProbs(0.1, 0.9), rand.New(rand.NewPCG(3, 3)))
	if err != nil {
		t.Fatal(err)
	}
	analytic := ExpectedDegreeDistribution(g)
	mc := (Options{Samples: 8000, Seed: 13}).DegreeDistribution(g)
	var mass float64
	for d := range analytic {
		mass += analytic[d]
		var m float64
		if d < len(mc) {
			m = mc[d]
		}
		if math.Abs(analytic[d]-m) > 0.35 {
			t.Fatalf("degree %d: analytic %v, MC %v", d, analytic[d], m)
		}
	}
	if math.Abs(mass-25) > 1e-9 {
		t.Fatalf("analytic distribution mass = %v, want 25", mass)
	}
}

func TestExpectedTrianglesClosedForm(t *testing.T) {
	// Single triangle with probabilities 0.5, 0.4, 0.3: E = 0.06.
	g := uncertain.New(3)
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(1, 2, 0.4)
	g.MustAddEdge(0, 2, 0.3)
	if got := ExpectedTriangles(g); math.Abs(got-0.06) > 1e-12 {
		t.Fatalf("E[triangles] = %v, want 0.06", got)
	}
	// No triangle in a star.
	star := certainGraph(t, 4, [2]uncertain.NodeID{0, 1}, [2]uncertain.NodeID{0, 2}, [2]uncertain.NodeID{0, 3})
	if got := ExpectedTriangles(star); got != 0 {
		t.Fatalf("star E[triangles] = %v, want 0", got)
	}
	// K4 certain: 4 triangles.
	k4 := certainGraph(t, 4,
		[2]uncertain.NodeID{0, 1}, [2]uncertain.NodeID{0, 2}, [2]uncertain.NodeID{0, 3},
		[2]uncertain.NodeID{1, 2}, [2]uncertain.NodeID{1, 3}, [2]uncertain.NodeID{2, 3})
	if got := ExpectedTriangles(k4); math.Abs(got-4) > 1e-12 {
		t.Fatalf("K4 E[triangles] = %v, want 4", got)
	}
}

func TestExpectedTrianglesMatchesMC(t *testing.T) {
	g, err := gen.ErdosRenyi(40, 160, gen.UniformProbs(0.2, 0.9), rand.New(rand.NewPCG(7, 7)))
	if err != nil {
		t.Fatal(err)
	}
	exact := ExpectedTriangles(g)
	mc := (Options{Samples: 6000, Seed: 8}).Triangles(g)
	if exact <= 0 {
		t.Fatal("test graph should contain expected triangles")
	}
	if math.Abs(exact-mc)/exact > 0.1 {
		t.Fatalf("closed form %v vs MC %v", exact, mc)
	}
}

func TestExpectedTrianglesIgnoresZeroEdges(t *testing.T) {
	g := uncertain.New(3)
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(1, 2, 0.4)
	g.MustAddEdge(0, 2, 0)
	if got := ExpectedTriangles(g); got != 0 {
		t.Fatalf("zero-probability edge should kill the triangle, got %v", got)
	}
}
