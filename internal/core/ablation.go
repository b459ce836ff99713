package core

import (
	"math/rand/v2"

	"chameleon/internal/truncnorm"
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
		p := g.Edge(i).P
		var r float64
		if rng.Float64() < whiteNoise {
			r = rng.Float64()
		} else {
			r = truncnorm.Sample(rng, sigma)
		}
		var pNew float64
		if guided {
			// float64() rounds the product: no fused multiply-add on any GOARCH.
			pNew = p + float64((1-2*p)*r)
		} else {
			if rng.Float64() < 0.5 {
				r = -r
			}
			pNew = p + r
			if pNew < 0 {
				pNew = 0
			} else if pNew > 1 {
				pNew = 1
			}
		}
		if err := pub.SetProb(i, pNew); err != nil {
			panic(err) // unreachable: pNew in [0,1], index valid
		}
	}
	return pub
}
