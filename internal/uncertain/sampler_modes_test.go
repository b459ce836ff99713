package uncertain

import (
	"math"
	"math/rand/v2"
	"testing"
)

func modeTestGraph(t *testing.T) *Graph {
	t.Helper()
	g := New(8)
	edges := []struct {
		u, v NodeID
		p    float64
	}{
		{0, 1, 0.5}, {1, 2, 0.2}, {2, 3, 0.8}, {3, 4, 1.0},
		{4, 5, 0.0}, {5, 6, 0.05}, {6, 7, 0.95}, {0, 7, 0.3},
	}
	for _, e := range edges {
		if err := g.AddEdge(e.u, e.v, e.p); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// The antithetic kernel with mirror=false must be bit-identical to the
// plain kernel: estimators rely on even pair members replaying the
// default stream exactly.
func TestAntitheticMirrorFalseIdentical(t *testing.T) {
	g := modeTestGraph(t)
	s := g.Sampler()
	var wa, wb World
	var pa, pb rand.PCG
	for seed := uint64(0); seed < 8; seed++ {
		pa.Seed(1, seed)
		pb.Seed(1, seed)
		s.SampleInto(&wa, &pa)
		s.SampleIntoAntithetic(&wb, &pb, false)
		for i := 0; i < g.NumEdges(); i++ {
			if wa.Present(i) != wb.Present(i) {
				t.Fatalf("seed %d edge %d: SampleIntoAntithetic(mirror=false) diverged from SampleInto", seed, i)
			}
		}
	}
}

// At p = 0.5 the threshold is exactly 2^52... not quite: t = ceil(0.5*2^53)
// = 2^52. d < 2^52 iff mask53-d >= 2^52 (d and its complement never land on
// the same side), so the mirror world is the exact complement of the plain
// world on every p=0.5 edge. The general antithetic guarantee follows the
// same bijection argument; this pins the sharpest case.
func TestAntitheticMirrorComplementAtHalf(t *testing.T) {
	g := New(4)
	for _, e := range [][2]NodeID{{0, 1}, {1, 2}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1], 0.5); err != nil {
			t.Fatal(err)
		}
	}
	s := g.Sampler()
	var plain, mirror World
	var pa, pb rand.PCG
	for seed := uint64(0); seed < 32; seed++ {
		pa.Seed(9, seed)
		pb.Seed(9, seed)
		s.SampleIntoAntithetic(&plain, &pa, false)
		s.SampleIntoAntithetic(&mirror, &pb, true)
		for i := 0; i < 3; i++ {
			if plain.Present(i) == mirror.Present(i) {
				t.Fatalf("seed %d edge %d: mirror world must complement the plain world at p=0.5", seed, i)
			}
		}
	}
}

// Antithetic marginals stay exact under mirroring: over many pairs, the
// mirrored worlds alone must hit each edge at rate p (the complement is a
// bijection on the 53-bit draws, so exactly ceil(p*2^53) of them pass).
func TestAntitheticMirrorMarginals(t *testing.T) {
	g := modeTestGraph(t)
	s := g.Sampler()
	const n = 40000
	counts := make([]int, g.NumEdges())
	var w World
	var pcg rand.PCG
	for i := 0; i < n; i++ {
		pcg.Seed(3, uint64(i))
		s.SampleIntoAntithetic(&w, &pcg, true)
		for e := 0; e < g.NumEdges(); e++ {
			if w.Present(e) {
				counts[e]++
			}
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		p := g.Edge(e).P
		got := float64(counts[e]) / n
		// 6-sigma binomial band; deterministic seeds make this stable.
		tol := 6*math.Sqrt(p*(1-p)/n) + 1e-9
		if math.Abs(got-p) > tol {
			t.Errorf("edge %d: mirrored marginal %.4f, want %.4f +- %.4f", e, got, p, tol)
		}
	}
}

// The hashed modes are pure functions of (seed, index, endpoints): same
// inputs replay the same world, certain/impossible edges are pinned, and
// different seeds decorrelate.
func TestHashedModesDeterministic(t *testing.T) {
	g := modeTestGraph(t)
	s := g.Sampler()
	for _, mode := range []struct {
		name string
		draw func(w *World, seed uint64, idx int)
	}{
		{"stratified", s.SampleIntoStratified},
		{"coupled", s.SampleIntoCoupled},
	} {
		var a, b World
		diff := 0
		for idx := 0; idx < 64; idx++ {
			mode.draw(&a, 42, idx)
			mode.draw(&b, 42, idx)
			for e := 0; e < g.NumEdges(); e++ {
				if a.Present(e) != b.Present(e) {
					t.Fatalf("%s: world %d not deterministic at edge %d", mode.name, idx, e)
				}
			}
			if !a.Present(3) {
				t.Fatalf("%s: world %d dropped the p=1 edge", mode.name, idx)
			}
			if a.Present(4) {
				t.Fatalf("%s: world %d included the p=0 edge", mode.name, idx)
			}
			mode.draw(&b, 43, idx)
			for e := 0; e < g.NumEdges(); e++ {
				if a.Present(e) != b.Present(e) {
					diff++
				}
			}
		}
		if diff == 0 {
			t.Errorf("%s: changing the seed never changed any world", mode.name)
		}
	}
}

// Marginal sanity for the hashed modes: per-edge hit rates over many
// indices track p. The stratified orbit makes the counts low-discrepancy
// (closer than binomial); the coupled hash behaves like an iid stream.
func TestHashedModesMarginals(t *testing.T) {
	g := modeTestGraph(t)
	s := g.Sampler()
	const n = 40000
	for _, mode := range []struct {
		name string
		draw func(w *World, seed uint64, idx int)
	}{
		{"stratified", s.SampleIntoStratified},
		{"coupled", s.SampleIntoCoupled},
	} {
		counts := make([]int, g.NumEdges())
		var w World
		for i := 0; i < n; i++ {
			mode.draw(&w, 17, i)
			for e := 0; e < g.NumEdges(); e++ {
				if w.Present(e) {
					counts[e]++
				}
			}
		}
		for e := 0; e < g.NumEdges(); e++ {
			p := g.Edge(e).P
			got := float64(counts[e]) / n
			tol := 6*math.Sqrt(p*(1-p)/n) + 1e-9
			if math.Abs(got-p) > tol {
				t.Errorf("%s edge %d: marginal %.4f, want %.4f +- %.4f", mode.name, e, got, p, tol)
			}
		}
	}
}

// The common-random-numbers contract of the coupled (and stratified) mode:
// draws are keyed by endpoints, not edge position, so a graph sharing an
// edge with another — at a DIFFERENT index and among different neighbors —
// draws the identical presence for it whenever the probability matches.
func TestCoupledSharedEdgesAgreeAcrossGraphs(t *testing.T) {
	ga := New(6)
	for _, e := range []struct {
		u, v NodeID
		p    float64
	}{{0, 1, 0.4}, {1, 2, 0.7}, {2, 3, 0.15}, {3, 4, 0.6}} {
		if err := ga.AddEdge(e.u, e.v, e.p); err != nil {
			t.Fatal(err)
		}
	}
	// gb shares three of ga's edges but at shifted indices (an extra edge
	// first) and with one probability changed.
	gb := New(6)
	for _, e := range []struct {
		u, v NodeID
		p    float64
	}{{4, 5, 0.5}, {0, 1, 0.4}, {1, 2, 0.7}, {2, 3, 0.9}, {3, 4, 0.6}} {
		if err := gb.AddEdge(e.u, e.v, e.p); err != nil {
			t.Fatal(err)
		}
	}
	sa, sb := ga.Sampler(), gb.Sampler()
	// (edge in ga, matching edge in gb) with identical endpoints+p.
	shared := [][2]int{{0, 1}, {1, 2}, {3, 4}}
	for _, mode := range []struct {
		name  string
		drawA func(w *World, seed uint64, idx int)
		drawB func(w *World, seed uint64, idx int)
	}{
		{"coupled", sa.SampleIntoCoupled, sb.SampleIntoCoupled},
		{"stratified", sa.SampleIntoStratified, sb.SampleIntoStratified},
	} {
		var wa, wb World
		for idx := 0; idx < 512; idx++ {
			mode.drawA(&wa, 23, idx)
			mode.drawB(&wb, 23, idx)
			for _, pair := range shared {
				if wa.Present(pair[0]) != wb.Present(pair[1]) {
					t.Fatalf("%s world %d: shared edge drew differently (ga[%d] vs gb[%d])",
						mode.name, idx, pair[0], pair[1])
				}
			}
		}
	}
}
