package privacy

import (
	"math"
	"math/rand/v2"
	"testing"

	"chameleon/internal/gen"
	"chameleon/internal/uncertain"
)

func TestCommonnessIdenticalValues(t *testing.T) {
	values := []float64{3, 3, 3, 3}
	c := Commonness(values, 1)
	phi0 := 1 / math.Sqrt(2*math.Pi)
	for i, ci := range c {
		if math.Abs(ci-4*phi0) > 1e-12 {
			t.Fatalf("c[%d] = %v, want %v", i, ci, 4*phi0)
		}
	}
}

func TestCommonnessIsolatedValue(t *testing.T) {
	// One value far away from a tight cluster: its commonness is ~phi(0)
	// (only itself), the cluster's is ~3*phi(0).
	values := []float64{0, 0, 0, 1000}
	c := Commonness(values, 1)
	phi0 := 1 / math.Sqrt(2*math.Pi)
	if math.Abs(c[3]-phi0) > 1e-9 {
		t.Fatalf("outlier commonness = %v, want ~%v", c[3], phi0)
	}
	if math.Abs(c[0]-3*phi0) > 1e-9 {
		t.Fatalf("cluster commonness = %v, want ~%v", c[0], 3*phi0)
	}
}

func TestCommonnessDegenerateKernel(t *testing.T) {
	values := []float64{1, 1, 2}
	c := Commonness(values, 0)
	if c[0] != 2 || c[1] != 2 || c[2] != 1 {
		t.Fatalf("degenerate kernel should count exact matches, got %v", c)
	}
	cn := Commonness(values, math.NaN())
	if cn[0] != 2 {
		t.Fatalf("NaN kernel should fall back to counting, got %v", cn)
	}
}

func TestCommonnessEmpty(t *testing.T) {
	if len(Commonness(nil, 1)) != 0 {
		t.Fatal("empty input should give empty output")
	}
}

func TestUniquenessInvertsCommonness(t *testing.T) {
	values := []float64{0, 0, 10}
	u := Uniqueness(values, 0.5)
	if u[2] <= u[0] {
		t.Fatalf("outlier should be more unique: %v", u)
	}
	for _, x := range u {
		if x <= 0 || math.IsInf(x, 0) || math.IsNaN(x) {
			t.Fatalf("uniqueness = %v", u)
		}
	}
}

func TestVertexUniquenessHub(t *testing.T) {
	// Star graph: the hub's expected degree is unique; leaves share
	// theirs. Hub uniqueness must exceed leaf uniqueness.
	const n = 12
	g := uncertain.New(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(0, uncertain.NodeID(i), 0.8)
	}
	u := VertexUniqueness(g)
	for v := 1; v < n; v++ {
		if u[0] <= u[v] {
			t.Fatalf("hub uniqueness %v should exceed leaf %d uniqueness %v", u[0], v, u[v])
		}
	}
}

func TestVertexUniquenessRegular(t *testing.T) {
	// Regular graph: everyone equally unique (theta falls back to 1).
	const n = 6
	g := uncertain.New(n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(uncertain.NodeID(i), uncertain.NodeID((i+1)%n), 0.5)
	}
	u := VertexUniqueness(g)
	for v := 1; v < n; v++ {
		if math.Abs(u[v]-u[0]) > 1e-12 {
			t.Fatalf("regular graph should have uniform uniqueness, got %v", u)
		}
	}
}

func TestVertexUniquenessDistinct(t *testing.T) {
	// Star graph: the hub's expected degree and the leaves' shared one.
	g := uncertain.New(5)
	for i := 1; i < 5; i++ {
		g.MustAddEdge(0, uncertain.NodeID(i), 0.5)
	}
	if _, st := VertexUniquenessDistinct(g); st.Distinct != 2 {
		t.Fatalf("distinct expected degrees = %d, want 2", st.Distinct)
	}
}

// BenchmarkCommonness times the kernel on the expected degrees of the
// benchmark's two anonymization shapes: a duplicate-heavy dblp-shaped
// graph and an all-distinct brightkite-shaped one, and reports the
// distinct values and the exps the transform made, which its cost
// follows.
func BenchmarkCommonness(b *testing.B) {
	dblp := gen.DiscreteProbs(
		[]float64{0.13, 0.28, 0.46, 0.64, 0.80},
		[]float64{0.15, 0.23, 0.27, 0.22, 0.13},
	)
	for _, bc := range []struct {
		name  string
		nodes int
		mPer  int
		probs gen.ProbAssigner
	}{
		{"dblp-12k", 12000, 3, dblp},
		{"brightkite-3.6k", 3600, 2, gen.SmallProbs(0.29)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			g, err := gen.BarabasiAlbert(bc.nodes, bc.mPer, bc.probs, rand.New(rand.NewPCG(1, 1)))
			if err != nil {
				b.Fatal(err)
			}
			values, theta := g.ExpectedDegrees(), g.DegreeStdDev()
			var st KernelStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st = commonness(values, theta)
			}
			b.ReportMetric(float64(st.Distinct), "distinct")
			b.ReportMetric(float64(st.KernelEvals), "exps")
		})
	}
}
