package testkit

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"chameleon/internal/uncertain"
)

// TestModeOracle runs the differential oracle for every sampling mode:
// each variance-reduction strategy must reproduce the exact pair
// reliabilities, connected-pair counts and Delta-discrepancy within the
// independent-worlds tolerances, and its adaptive-capped arm must equal
// its fixed-N run bit-for-bit. Covers SampleIndependent too, so the mode
// dispatch itself is exercised end to end.
func TestModeOracle(t *testing.T) {
	const (
		samples = 4000
		seed    = 0x5eedc0de
	)
	modes := []uncertain.SamplingMode{
		uncertain.SampleIndependent,
		uncertain.SampleAntithetic,
		uncertain.SampleStratified,
		uncertain.SampleCoupled,
	}
	for _, cg := range Corpus() {
		for _, mode := range modes {
			cg, mode := cg, mode
			t.Run(cg.Name+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				for _, err := range ModeOracle(cg, samples, seed, mode) {
					t.Error(err)
				}
			})
		}
	}
}

// modeStream mirrors the per-sample PCG stream derivation of the
// reliability estimator, so these tests draw exactly the worlds the
// production chunk loop would for sample index i (antithetic pairs share
// the stream of their pair index i>>1).
func modeStream(i int) uint64 {
	return uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
}

// sampleModeCounts draws gofSamples worlds with the given mode exactly as
// the estimator schedules them and returns per-edge presence counts.
// parity 0/1 restricts the count to even (plain) or odd (mirrored)
// antithetic indices — within one parity class the worlds are iid, which
// the chi-square marginal test below needs; parity -1 counts all worlds.
func sampleModeCounts(g *uncertain.Graph, mode uncertain.SamplingMode, parity int, seed uint64) ([]int, int) {
	s := g.Sampler()
	pcg := rand.NewPCG(0, 0)
	counts := make([]int, g.NumEdges())
	var w uncertain.World
	n := 0
	for i := 0; i < gofSamples; i++ {
		if parity >= 0 && i&1 != parity {
			continue
		}
		switch mode {
		case uncertain.SampleAntithetic:
			pcg.Seed(seed, modeStream(i>>1))
			s.SampleIntoAntithetic(&w, pcg, i&1 == 1)
		case uncertain.SampleStratified:
			s.SampleIntoStratified(&w, seed, i)
		case uncertain.SampleCoupled:
			s.SampleIntoCoupled(&w, seed, i)
		default:
			pcg.Seed(seed, modeStream(i))
			s.SampleInto(&w, pcg)
		}
		n++
		for j := range counts {
			if w.Present(j) {
				counts[j]++
			}
		}
	}
	return counts, n
}

// TestSamplerModeMarginals extends the marginal GOF coverage to the
// variance-reduction modes on every sampling-corpus graph: the mirrored
// half of the antithetic stream, the stratified lattice and the coupled hash must all produce the right
// per-edge Bernoulli marginals. Pinned edges stay deterministic, rare
// edges stay under their Chernoff caps, and the well-populated edges pass
// a pooled chi-square. For the lattice the per-edge counts are
// under-dispersed by construction (that is the point of stratification),
// which only pushes the upper-tail statistic toward acceptance — a
// marginal bias would still shift the counts by Theta(n) and reject.
func TestSamplerModeMarginals(t *testing.T) {
	variants := []struct {
		name   string
		mode   uncertain.SamplingMode
		parity int
	}{
		{"antithetic-plain", uncertain.SampleAntithetic, 0},
		{"antithetic-mirrored", uncertain.SampleAntithetic, 1},
		{"stratified", uncertain.SampleStratified, -1},
		{"coupled", uncertain.SampleCoupled, -1},
	}
	for _, cg := range SamplingCorpus() {
		for _, vr := range variants {
			cg, vr := cg, vr
			t.Run(cg.Name+"/"+vr.name, func(t *testing.T) {
				t.Parallel()
				g := cg.G
				counts, n := sampleModeCounts(g, vr.mode, vr.parity, gofSeeds[0])
				chiEdges := 0
				for j, c := range counts {
					p := g.Edge(j).P
					switch {
					case p <= 0:
						if c != 0 {
							t.Errorf("edge %d has p=0 but appeared %d times", j, c)
						}
					case p >= 1:
						if c != n {
							t.Errorf("edge %d has p=1 but appeared only %d/%d times", j, c, n)
						}
					case float64(n)*math.Min(p, 1-p) < 25:
						rare, rareP := c, p
						if p > 0.5 {
							rare, rareP = n-c, 1-p
						}
						if maxC := RareCountMax(rareP, n); rare > maxC {
							t.Errorf("edge %d (p=%v): rare-side count %d exceeds Chernoff cap %d",
								j, p, rare, maxC)
						}
					default:
						chiEdges++
					}
				}
				if chiEdges == 0 {
					return
				}
				err := RetryGOF(fmt.Sprintf("marginals %s/%s", cg.Name, vr.name), func(seed uint64) float64 {
					cs, m := sampleModeCounts(g, vr.mode, vr.parity, seed)
					var stat float64
					for j, c := range cs {
						p := g.Edge(j).P
						if p <= 0 || p >= 1 || float64(m)*math.Min(p, 1-p) < 25 {
							continue
						}
						z := (float64(c) - float64(m)*p) / math.Sqrt(float64(m)*p*(1-p))
						stat += z * z
					}
					return ChiSquareTail(stat, chiEdges)
				})
				if err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestAntitheticPairComplement pins the defining identity of antithetic
// threshold sampling at p = 0.5: the mirrored world of a pair is the
// exact edge-complement of its plain sibling, so the pair's presence
// counts sum to the pair count for every interior p=0.5 edge.
func TestAntitheticPairComplement(t *testing.T) {
	g := uncertain.New(4)
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(1, 2, 0.5)
	g.MustAddEdge(2, 3, 0.5)
	plain, np := sampleModeCounts(g, uncertain.SampleAntithetic, 0, gofSeeds[0])
	mirror, nm := sampleModeCounts(g, uncertain.SampleAntithetic, 1, gofSeeds[0])
	if np != nm {
		t.Fatalf("halves differ in size: %d vs %d", np, nm)
	}
	for j := range plain {
		if plain[j]+mirror[j] != np {
			t.Errorf("edge %d: plain %d + mirrored %d != pairs %d (p=0.5 complement broken)",
				j, plain[j], mirror[j], np)
		}
	}
}
