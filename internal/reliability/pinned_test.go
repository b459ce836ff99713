package reliability

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync/atomic"
	"testing"

	"chameleon/internal/gen"
	"chameleon/internal/obs"
	"chameleon/internal/uncertain"
)

// This file pins EdgeRelevance's shared conditional pass (pinnedMeans) to
// a mirror of the per-edge loop it replaced: for each edge whose presence
// bit never varied, draw the auxiliary worlds 1_000_000+i with the
// estimator's own sampling mode, pin the edge, and recount the world's
// connected pairs from scratch.

// pinCases counts, over the auxiliary worlds of a mirror run, the pinned
// edges whose bit the pin flipped, by what the flip did to the world.
type pinCases struct {
	merged, joined int // pinned present: endpoints were apart / together
	bridge, cycle  int // pinned absent: the edge split its component / did not
}

func (c *pinCases) add(o pinCases) {
	c.merged += o.merged
	c.joined += o.joined
	c.bridge += o.bridge
	c.cycle += o.cycle
}

// mirrorConditionalCC is the per-edge conditional estimate as drawn before
// the shared pass: max(N/4, 32) auxiliary worlds, serially, with the edge
// pinned and the pairs recounted, for any sampling mode.
func mirrorConditionalCC(e Estimator, g *uncertain.Graph, edge int, present bool) (float64, pinCases) {
	n := max(e.samples()/4, 32)
	sampler := g.Sampler()
	draw := e.drawFn()
	sc := new(scratch)
	var total int64
	var cases pinCases
	for i := 0; i < n; i++ {
		draw(e.Seed, sampler, sc, 1_000_000+i)
		flipped := sc.world.Present(edge) != present
		_, before := sc.componentsPairs()
		sc.world.SetPresence(edge, present)
		_, pairs := sc.componentsPairs()
		total += pairs
		switch {
		case !flipped:
		case present && pairs > before:
			cases.merged++
		case present:
			cases.joined++
		case pairs < before:
			cases.bridge++
		default:
			cases.cycle++
		}
	}
	return meanOf(total, n), cases
}

// mirrorEdgeRelevance is EdgeRelevance with the grouping done serially
// over the effective sample and the conditional side by
// mirrorConditionalCC.
func mirrorEdgeRelevance(e Estimator, g *uncertain.Graph) ([]float64, pinCases) {
	e.Obs, e.Workers = nil, 1
	stat := e.forEachSample(g, nil, func(_ int, sc *scratch) int64 {
		_, cc := sc.componentsPairs()
		return cc
	})
	n := e.effSamples(stat.Welford)
	m := g.NumEdges()
	ccE := make([]int64, m)
	nE := make([]int, m)
	sampler := g.Sampler()
	draw := e.drawFn()
	sc := new(scratch)
	var total int64
	for i := 0; i < n; i++ {
		draw(e.Seed, sampler, sc, i)
		_, cc := sc.componentsPairs()
		total += cc
		for j := 0; j < m; j++ {
			if sc.world.Present(j) {
				ccE[j] += cc
				nE[j]++
			}
		}
	}
	out := make([]float64, m)
	var cases pinCases
	for j := range out {
		var meanE, meanNE float64
		var c pinCases
		switch nE[j] {
		case 0:
			meanNE = meanOf(total, n)
			meanE, c = mirrorConditionalCC(e, g, j, true)
		case n:
			meanE = meanOf(ccE[j], n)
			meanNE, c = mirrorConditionalCC(e, g, j, false)
		default:
			meanE = meanOf(ccE[j], nE[j])
			meanNE = meanOf(total-ccE[j], n-nE[j])
		}
		cases.add(c)
		out[j] = max(meanE-meanNE, 0)
	}
	return out, cases
}

// fallbackGraph draws a random graph whose edges mix p ∈ {0, 1}, p ≤ 10⁻³,
// p ≥ 0.999 and ordinary probabilities, on sparse enough a vertex set that
// its worlds have several components, trees and cycles.
func fallbackGraph(seed uint64, n, m int) *uncertain.Graph {
	rng := rand.New(rand.NewPCG(seed, 0xfa11))
	g := uncertain.New(n)
	for g.NumEdges() < m {
		u := uncertain.NodeID(rng.IntN(n))
		v := uncertain.NodeID(rng.IntN(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		var p float64
		switch rng.IntN(6) {
		case 0:
			p = 0
		case 1:
			p = 1
		case 2:
			p = rng.Float64() * 1e-3
		case 3:
			p = 1 - rng.Float64()*1e-3
		default:
			p = rng.Float64()
		}
		g.MustAddEdge(u, v, p)
	}
	return g
}

// jobsShapedGraph is one graph of the shape the job-plane benchmark runs:
// a 1,800-node Barabási–Albert graph with brightkite-like small
// probabilities, of which a handful never appear in 1,000 worlds.
func jobsShapedGraph(tb testing.TB) *uncertain.Graph {
	tb.Helper()
	g, err := gen.BarabasiAlbert(1800, 2, gen.SmallProbs(0.29), rand.New(rand.NewPCG(1, 0xb0b)))
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func TestEdgeRelevanceMatchesConditionalMirror(t *testing.T) {
	graphs := []struct {
		name string
		g    *uncertain.Graph
		est  []Estimator
	}{
		{"fallback-sparse", fallbackGraph(1, 60, 70), []Estimator{
			{Samples: 200}, {TargetRSE: 0.05, MaxSamples: 1024}}},
		{"fallback-dense", fallbackGraph(2, 40, 120), []Estimator{
			{Samples: 96}, {Samples: 400, TargetRSE: 0.02, MaxSamples: 512}}},
		{"jobs-shaped", jobsShapedGraph(t), []Estimator{
			{Samples: 1000}, {Samples: 128, TargetRSE: 0.05, MaxSamples: 1024}}},
	}
	if testing.Short() || raceEnabled {
		graphs = graphs[:2]
	}
	modes := []uncertain.SamplingMode{uncertain.SampleIndependent, uncertain.SampleAntithetic,
		uncertain.SampleStratified, uncertain.SampleCoupled}
	var cases pinCases
	for _, tc := range graphs {
		for _, base := range tc.est {
			for _, mode := range modes {
				base.Seed, base.Mode = 7, mode
				want, c := mirrorEdgeRelevance(base, tc.g)
				cases.add(c)
				for _, workers := range []int{1, 2, 3, 5, 7} {
					est := base
					est.Workers = workers
					got := est.EdgeRelevance(tc.g)
					name := fmt.Sprintf("%s mode=%v rse=%v workers=%d", tc.name, mode, base.TargetRSE, workers)
					for j := range want {
						if got[j] != want[j] {
							t.Errorf("%s: EdgeRelevance[%d] = %v, mirror %v", name, j, got[j], want[j])
						}
					}
				}
			}
		}
	}
	if cases.merged == 0 || cases.joined == 0 || cases.bridge == 0 || cases.cycle == 0 {
		t.Errorf("the mirror runs did not reach every pinning case: %+v", cases)
	}
}

// worldCC recounts the connected pairs of w from scratch.
func worldCC(w *uncertain.World) int64 {
	_, cc := w.ComponentsPairsInto(nil)
	return cc
}

// TestPinnedCCMatchesRecount: on random small worlds — forests, single
// cycles and multi-component graphs — pinning any edge either way gives,
// through pinnedCC's deltas, the pair count of the world rebuilt with the
// edge pinned. One Bridges value serves every world, as on a worker.
func TestPinnedCCMatchesRecount(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	var bridges uncertain.Bridges
	var cases pinCases
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.IntN(24)
		g := uncertain.New(n)
		switch trial % 3 {
		case 0: // a forest: each node hangs off an earlier one, or starts a tree
			for v := 1; v < n; v++ {
				if rng.IntN(5) > 0 {
					g.MustAddEdge(uncertain.NodeID(rng.IntN(v)), uncertain.NodeID(v), 0.5)
				}
			}
		case 1: // one cycle through every node, plus chords
			for v := 0; v < n && n > 2; v++ {
				g.MustAddEdge(uncertain.NodeID(v), uncertain.NodeID((v+1)%n), 0.8)
			}
			for c := rng.IntN(3); c > 0; c-- {
				u, v := uncertain.NodeID(rng.IntN(n)), uncertain.NodeID(rng.IntN(n))
				if u != v && !g.HasEdge(u, v) {
					g.MustAddEdge(u, v, 0.8)
				}
			}
		default: // random sparse edges: several components
			for e := rng.IntN(2 * n); e > 0; e-- {
				u, v := uncertain.NodeID(rng.IntN(n)), uncertain.NodeID(rng.IntN(n))
				if u != v && !g.HasEdge(u, v) {
					g.MustAddEdge(u, v, 0.6)
				}
			}
		}
		for draw := 0; draw < 4; draw++ {
			w := g.SampleWorld(rand.New(rand.NewPCG(uint64(trial), uint64(draw))))
			d, cc := w.ComponentsPairsInto(nil)
			if cc != worldCC(w) {
				t.Fatalf("trial %d: fused pair count %d, recount %d", trial, cc, worldCC(w))
			}
			bridges.Reset()
			for i := 0; i < g.NumEdges(); i++ {
				e := g.Edge(i)
				was := w.Present(i)
				p := pin{edge: i, u: int(e.U), v: int(e.V), present: !was}
				got := pinnedCC(w, d, cc, &bridges, p)
				w.SetPresence(i, !was)
				want := worldCC(w)
				w.SetPresence(i, was)
				if got != want {
					t.Fatalf("trial %d world %d: pinning edge %d (%d-%d) to %v gives %d, recount %d",
						trial, draw, i, e.U, e.V, !was, got, want)
				}
				if same := pinnedCC(w, d, cc, &bridges, pin{edge: i, u: p.u, v: p.v, present: was}); same != cc {
					t.Fatalf("trial %d world %d: pinning edge %d to its own bit changed cc %d to %d", trial, draw, i, cc, same)
				}
				switch {
				case !was && got > cc:
					cases.merged++
				case !was:
					cases.joined++
				case got < cc:
					cases.bridge++
				default:
					cases.cycle++
				}
			}
		}
	}
	if cases.merged == 0 || cases.joined == 0 || cases.bridge == 0 || cases.cycle == 0 {
		t.Errorf("random worlds did not reach every pinning case: %+v", cases)
	}
}

// countFallback counts the edges whose bit never varies over the first n
// independent worlds of est.
func countFallback(est Estimator, g *uncertain.Graph, n int) int {
	present := make([]int, g.NumEdges())
	for i := 0; i < n; i++ {
		for j, in := range g.SampleWorld(est.rngFor(i)).PresenceMask() {
			if in {
				present[j]++
			}
		}
	}
	fallback := 0
	for _, c := range present {
		if c == 0 || c == n {
			fallback++
		}
	}
	return fallback
}

// TestEdgeRelevanceConditionalPassCost: the conditional side costs one
// auxiliary pass of max(N/4, 32) worlds however many edges take it — a
// per-edge loop would multiply it — and those worlds go through the
// scheduler, so they are counted in mc.worlds_sampled and the per-worker
// counters still sum to it.
func TestEdgeRelevanceConditionalPassCost(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *uncertain.Graph
	}{
		{"none", cancelTestGraph(t)},
		{"one", degenerateGraph()},
		{"many", fallbackGraph(5, 80, 160)},
	} {
		for _, samples := range []int{96, 1000} {
			for _, workers := range []int{1, 3} {
				o := obs.NewObserver()
				est := Estimator{Samples: samples, Seed: 5, Workers: workers, Obs: o}
				est.EdgeRelevance(tc.g)
				snap := o.Registry().Snapshot()
				fallback := countFallback(est, tc.g, samples)
				if got := snap.Gauges["err.fallback_edges"]; got != float64(fallback) {
					t.Fatalf("%s N=%d: err.fallback_edges = %v, want %d", tc.name, samples, got, fallback)
				}
				want := int64(samples)
				if fallback > 0 {
					want += int64(max(samples/4, 32))
				}
				if tc.name == "many" && fallback < 20 {
					t.Fatalf("many N=%d: only %d fallback edges", samples, fallback)
				}
				if (tc.name == "none") != (fallback == 0) {
					t.Fatalf("%s N=%d: %d fallback edges", tc.name, samples, fallback)
				}
				checkWorldCount(t, fmt.Sprintf("%s N=%d workers=%d", tc.name, samples, workers), snap, want)
			}
		}
	}

	// Adaptive: the main pass's drawn worlds, the redrawn overshoot, and
	// one auxiliary pass at the fixed Samples' budget.
	for _, workers := range []int{1, 3} {
		o := obs.NewObserver()
		est := Estimator{Samples: 200, Seed: 5, Workers: workers, Obs: o, TargetRSE: 0.05, MaxSamples: 2048}
		est.EdgeRelevance(fallbackGraph(5, 80, 160))
		snap := o.Registry().Snapshot()
		drawn, used := int64(snap.Gauges["mc.adaptive.last_drawn"]), int64(snap.Gauges["mc.adaptive.last_samples"])
		if snap.Gauges["err.fallback_edges"] == 0 {
			t.Fatal("adaptive: no fallback edges")
		}
		checkWorldCount(t, fmt.Sprintf("adaptive workers=%d", workers), snap, drawn+(drawn-used)+50)
	}
}

func checkWorldCount(t *testing.T, name string, snap obs.Snapshot, want int64) {
	t.Helper()
	if got := snap.Counters["mc.worlds_sampled"]; got != want {
		t.Errorf("%s: mc.worlds_sampled = %d, want %d", name, got, want)
	}
	var workerSum int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "mc.worker.") {
			workerSum += v
		}
	}
	if got := snap.Counters["mc.worlds_sampled"]; got != workerSum {
		t.Errorf("%s: mc.worlds_sampled = %d but the per-worker counters sum to %d", name, got, workerSum)
	}
}

// countdownCtx reports itself cancelled from its n-th Err call on: the
// estimators poll Err once per chunk, so it cuts a run at a chosen chunk.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestEdgeRelevanceCancelledInConditionalPass: a cancellation that lands
// in the auxiliary pass, after the main pass completed, still yields a
// zero vector and no quality stream.
func TestEdgeRelevanceCancelledInConditionalPass(t *testing.T) {
	g := fallbackGraph(5, 80, 160)
	const samples, aux = 1024, 256
	inAux := 0
	for calls := int64(1); calls < 40; calls++ {
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(calls)
		o := obs.NewObserver()
		est := Estimator{Samples: samples, Seed: 5, Workers: 1, Obs: o, Ctx: ctx}
		rel := est.EdgeRelevance(g)
		snap := o.Registry().Snapshot()
		worlds := snap.Counters["mc.worlds_sampled"]
		if worlds == samples+aux {
			continue // finished before the countdown ran out
		}
		if worlds > samples {
			inAux++
		}
		for i, v := range rel {
			if v != 0 {
				t.Fatalf("cancel after %d polls (%d worlds): rel[%d] = %v, want 0", calls, worlds, i, v)
			}
		}
		if len(snap.Quality) != 0 {
			t.Fatalf("cancel after %d polls (%d worlds): quality streams recorded: %v", calls, worlds, snap.Quality)
		}
	}
	if inAux == 0 {
		t.Fatal("no countdown landed inside the auxiliary pass")
	}
}
