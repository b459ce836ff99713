package repan

import (
	"math/rand/v2"
	"testing"

	"chameleon/internal/gen"
	"chameleon/internal/uncertain"
)

func testGraph(t testing.TB, seed uint64) *uncertain.Graph {
	t.Helper()
	g, err := gen.BarabasiAlbert(200, 3, gen.UniformProbs(0.1, 0.9), rand.New(rand.NewPCG(seed, 1)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRepresentativeIsDeterministic01(t *testing.T) {
	g := testGraph(t, 1)
	rep := Representative(g)
	if rep.NumNodes() != g.NumNodes() {
		t.Fatal("representative must keep the vertex set")
	}
	for i := 0; i < rep.NumEdges(); i++ {
		if rep.Edge(i).P != 1 {
			t.Fatalf("representative edge %d has p=%v, want 1", i, rep.Edge(i).P)
		}
	}
}

func TestRepresentativeSubsetOfOriginalEdges(t *testing.T) {
	g := testGraph(t, 2)
	rep := Representative(g)
	for i := 0; i < rep.NumEdges(); i++ {
		e := rep.Edge(i)
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("representative invented edge (%d,%d)", e.U, e.V)
		}
	}
}

func TestRepresentativeImprovesOnMostProbableWorld(t *testing.T) {
	g := testGraph(t, 3)
	// Baseline: most-probable world as a 0/1 graph.
	mp := uncertain.New(g.NumNodes())
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		if e.P >= 0.5 {
			mp.MustAddEdge(e.U, e.V, 1)
		}
	}
	rep := Representative(g)
	if DegreeDiscrepancy(g, rep) > DegreeDiscrepancy(g, mp) {
		t.Fatalf("ADR rewiring should not worsen the degree discrepancy: rep %v vs mp %v",
			DegreeDiscrepancy(g, rep), DegreeDiscrepancy(g, mp))
	}
}

func TestRepresentativeLowProbabilityGraph(t *testing.T) {
	// All p < 0.5: the most-probable world is empty, but ADR must add
	// edges to approximate the expected degrees.
	g, err := gen.BarabasiAlbert(100, 3, gen.SmallProbs(0.3), rand.New(rand.NewPCG(4, 2)))
	if err != nil {
		t.Fatal(err)
	}
	rep := Representative(g)
	if rep.NumEdges() == 0 {
		t.Fatal("representative of a low-probability graph should not be empty")
	}
}

func TestDegreeDiscrepancy(t *testing.T) {
	g := uncertain.New(3)
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(1, 2, 0.5)
	// Expected degrees: 0.5, 1.0, 0.5.
	empty := uncertain.New(3)
	if got := DegreeDiscrepancy(g, empty); got != 2 {
		t.Fatalf("discrepancy vs empty = %v, want 2", got)
	}
	full := uncertain.New(3)
	full.MustAddEdge(0, 1, 1)
	full.MustAddEdge(1, 2, 1)
	if got := DegreeDiscrepancy(g, full); got != 2 {
		t.Fatalf("discrepancy vs full = %v, want 2", got)
	}
}

func TestRepresentativeDeterministic(t *testing.T) {
	g := testGraph(t, 8)
	if !Representative(g).Equal(Representative(g)) {
		t.Fatal("Representative must be deterministic")
	}
}
