package privacy

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"chameleon/internal/exact"
	"chameleon/internal/uncertain"
)

func TestDegreeDistributionBasics(t *testing.T) {
	// No incident edges: degree is certainly 0.
	d := DegreeDistribution(nil)
	if len(d) != 1 || d[0] != 1 {
		t.Fatalf("empty distribution = %v", d)
	}
	// Single p=0.5 edge.
	d = DegreeDistribution([]float64{0.5})
	if math.Abs(d[0]-0.5) > 1e-12 || math.Abs(d[1]-0.5) > 1e-12 {
		t.Fatalf("single-edge distribution = %v", d)
	}
	// Two edges: closed form.
	d = DegreeDistribution([]float64{0.3, 0.6})
	want := []float64{0.7 * 0.4, 0.3*0.4 + 0.7*0.6, 0.3 * 0.6}
	for j := range want {
		if math.Abs(d[j]-want[j]) > 1e-12 {
			t.Fatalf("dist[%d] = %v, want %v", j, d[j], want[j])
		}
	}
}

func TestDegreeDistributionSumsToOne(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		n := rng.IntN(20)
		probs := make([]float64, n)
		for i := range probs {
			probs[i] = rng.Float64()
		}
		d := DegreeDistribution(probs)
		if len(d) != n+1 {
			return false
		}
		var sum float64
		for _, p := range d {
			if p < -1e-15 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestVertexDegreeDistributionsMatchExact(t *testing.T) {
	g := uncertain.New(4)
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(0, 2, 0.3)
	g.MustAddEdge(0, 3, 0.9)
	g.MustAddEdge(1, 2, 0.4)
	dists := VertexDegreeDistributions(g)
	for v := 0; v < 4; v++ {
		want := exact.DegreeDistribution(g, uncertain.NodeID(v))
		for j := range want {
			if math.Abs(dists[v][j]-want[j]) > 1e-12 {
				t.Fatalf("vertex %d dist[%d] = %v, want %v", v, j, dists[v][j], want[j])
			}
		}
	}
}

func TestDegreeEntropy(t *testing.T) {
	if h := DegreeEntropy([]float64{1}); h != 0 {
		t.Fatalf("certain degree entropy = %v, want 0", h)
	}
	if h := DegreeEntropy([]float64{0.5, 0.5}); math.Abs(h-1) > 1e-12 {
		t.Fatalf("fair-coin entropy = %v, want 1 bit", h)
	}
	// p=0 entries contribute nothing.
	if h := DegreeEntropy([]float64{0.5, 0, 0.5}); math.Abs(h-1) > 1e-12 {
		t.Fatalf("entropy with zero entry = %v, want 1", h)
	}
}

func TestTotalDegreeEntropy(t *testing.T) {
	// Deterministic graph: all degrees certain, total entropy 0.
	g := uncertain.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	if h := TotalDegreeEntropy(g); h != 0 {
		t.Fatalf("deterministic graph entropy = %v, want 0", h)
	}
	// Max-uncertainty single edge: both endpoints get 1 bit.
	g2 := uncertain.New(2)
	g2.MustAddEdge(0, 1, 0.5)
	if h := TotalDegreeEntropy(g2); math.Abs(h-2) > 1e-12 {
		t.Fatalf("single p=0.5 edge: total entropy %v, want 2", h)
	}
}

func TestDegreeProperty(t *testing.T) {
	g := uncertain.New(3)
	g.MustAddEdge(0, 1, 0.6)
	g.MustAddEdge(0, 2, 0.6)
	prop := DegreeProperty(g)
	if prop[0] != 1 { // 1.2 rounds to 1
		t.Fatalf("prop[0] = %d, want 1", prop[0])
	}
	if prop[1] != 1 || prop[2] != 1 { // 0.6 rounds to 1
		t.Fatalf("prop = %v", prop)
	}
}

func TestCheckObfuscationRegularGraph(t *testing.T) {
	// Certain cycle: every vertex has degree exactly 2, so
	// Y_2 is uniform over n vertices: H = log2(n), k-obf for k <= n.
	const n = 16
	g := uncertain.New(n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(uncertain.NodeID(i), uncertain.NodeID((i+1)%n), 1)
	}
	prop := DegreeProperty(g)
	rep, err := CheckObfuscation(g, prop, n)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NonObfuscated != 0 {
		t.Fatalf("cycle should be fully %d-obfuscated, %d failed", n, rep.NonObfuscated)
	}
	if math.Abs(rep.EntropyByDegree[2]-math.Log2(n)) > 1e-9 {
		t.Fatalf("H(Y_2) = %v, want log2(%d)", rep.EntropyByDegree[2], n)
	}
}

func TestCheckObfuscationStarCenterExposed(t *testing.T) {
	// Certain star: the center's degree (n-1) is unique -> entropy 0 ->
	// non-obfuscated for any k >= 2. Leaves share degree 1.
	const n = 10
	g := uncertain.New(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(0, uncertain.NodeID(i), 1)
	}
	prop := DegreeProperty(g)
	rep, err := CheckObfuscation(g, prop, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NonObfuscated != 1 {
		t.Fatalf("only the center should fail, got %d", rep.NonObfuscated)
	}
	if rep.EpsilonTilde != 1.0/n {
		t.Fatalf("eps~ = %v, want %v", rep.EpsilonTilde, 1.0/n)
	}
	if !rep.Obfuscates(0.2) || rep.Obfuscates(0.05) {
		t.Fatal("Obfuscates threshold logic wrong")
	}
}

func TestCheckObfuscationMissingMassConservative(t *testing.T) {
	// Adversary property says a vertex has degree 5, but no vertex of the
	// published graph can reach degree 5: conservative failure.
	g := uncertain.New(4)
	g.MustAddEdge(0, 1, 1)
	prop := []int{5, 1, 0, 0}
	rep, err := CheckObfuscation(g, prop, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NonObfuscated < 1 {
		t.Fatal("unreachable degree value should count as non-obfuscated")
	}
}

func TestCheckObfuscationErrors(t *testing.T) {
	g := uncertain.New(4)
	g.MustAddEdge(0, 1, 0.5)
	if _, err := CheckObfuscation(g, []int{1, 1}, 2); err == nil {
		t.Fatal("short property vector should error")
	}
	if _, err := CheckObfuscation(g, []int{0, 0, 0, 0}, 0); err == nil {
		t.Fatal("k < 1 should error")
	}
	if _, err := CheckObfuscation(g, []int{0, 0, 0, 0}, 5); err == nil {
		t.Fatal("k > |V| should error")
	}
}

func TestCheckObfuscationEntropyBound(t *testing.T) {
	// H(Y_w) can never exceed log2(|V|).
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		n := 3 + rng.IntN(12)
		g := uncertain.New(n)
		for i := 0; i < 2*n; i++ {
			u := uncertain.NodeID(rng.IntN(n))
			v := uncertain.NodeID(rng.IntN(n))
			if u == v || g.HasEdge(u, v) {
				continue
			}
			g.MustAddEdge(u, v, rng.Float64())
		}
		rep, err := CheckObfuscation(g, DegreeProperty(g), 2)
		if err != nil {
			return false
		}
		bound := math.Log2(float64(n)) + 1e-9
		for _, h := range rep.EntropyByDegree {
			if h > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestUncertaintyHelpsObfuscation(t *testing.T) {
	// The same topology with uncertain edges must obfuscate at least as
	// many vertices as with certain edges — uncertainty spreads degree
	// distributions and raises entropy. This is the paper's core premise.
	rng := rand.New(rand.NewPCG(5, 5))
	n := 40
	certain := uncertain.New(n)
	fuzzy := uncertain.New(n)
	for i := 0; i < 3*n; i++ {
		u := uncertain.NodeID(rng.IntN(n))
		v := uncertain.NodeID(rng.IntN(n))
		if u == v || certain.HasEdge(u, v) {
			continue
		}
		certain.MustAddEdge(u, v, 1)
		fuzzy.MustAddEdge(u, v, 0.5)
	}
	k := 8
	repC, err := CheckObfuscation(certain, DegreeProperty(certain), k)
	if err != nil {
		t.Fatal(err)
	}
	repF, err := CheckObfuscation(fuzzy, DegreeProperty(certain), k)
	if err != nil {
		t.Fatal(err)
	}
	if repF.NonObfuscated > repC.NonObfuscated {
		t.Fatalf("uncertainty should not hurt obfuscation: fuzzy %d vs certain %d",
			repF.NonObfuscated, repC.NonObfuscated)
	}
}

func BenchmarkDegreeDistribution(b *testing.B) {
	probs := make([]float64, 64)
	rng := rand.New(rand.NewPCG(1, 1))
	for i := range probs {
		probs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DegreeDistribution(probs)
	}
}

func BenchmarkCheckObfuscation(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 2))
	g := uncertain.New(1000)
	for i := 0; i < 4000; i++ {
		u := uncertain.NodeID(rng.IntN(1000))
		v := uncertain.NodeID(rng.IntN(1000))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, rng.Float64())
	}
	prop := DegreeProperty(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CheckObfuscation(g, prop, 20); err != nil {
			b.Fatal(err)
		}
	}
}
