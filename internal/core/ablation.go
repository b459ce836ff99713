package core

import (
	"math/rand/v2"

	"chameleon/internal/uncertain"
)

// PerturbAll applies one perturbation scheme to every edge of g with the
// same noise level sigma, skipping selection and the sigma search. It
// exists for the Section V-F ablation: measuring the degree-entropy gain
// (the anonymity driver of Lemma 5) per unit of injected noise, guided
// (max-entropy) versus unguided (random-sign).
func PerturbAll(g *uncertain.Graph, guided bool, sigma, whiteNoise float64, seed uint64) *uncertain.Graph {
	rng := rand.New(rand.NewPCG(seed, 0xab1a71))
	pub := g.Clone()
	for i := 0; i < g.NumEdges(); i++ {
		if err := pub.SetProb(i, perturbProb(rng, g.Edge(i).P, sigma, whiteNoise, guided)); err != nil {
			panic(err) // unreachable: p~ in [0,1], index valid
		}
	}
	return pub
}
