package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"chameleon/internal/uncertain"
)

// TestPairSetMatchesMap holds the injected-pair set to a map model over
// rounds of adds separated by resets: add reports absence exactly as the
// map does, pairs keeps insertion order, the table grows from its hint,
// and neither a reset nor the epoch's wraparound leaks a stale pair.
func TestPairSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	s := newPairSet(4)
	for round := 0; round < 40; round++ {
		if round == 20 {
			s.epoch = math.MaxUint32 // the next reset wraps to a cleared table
		}
		s.reset()
		model := map[[2]uncertain.NodeID]bool{}
		var order [][2]uncertain.NodeID
		for i := 0; i < 50+round*20; i++ {
			p := [2]uncertain.NodeID{uncertain.NodeID(rng.IntN(40)), uncertain.NodeID(rng.IntN(40))}
			if got := s.add(p[0], p[1]); got != !model[p] {
				t.Fatalf("round %d: add(%v) = %v with the pair present %v", round, p, got, model[p])
			}
			if !model[p] {
				model[p] = true
				order = append(order, p)
			}
		}
		if !slices.Equal(s.pairs, order) {
			t.Fatalf("round %d: pairs %v, want insertion order %v", round, s.pairs, order)
		}
		if 2*len(s.pairs) > len(s.slots) {
			t.Fatalf("round %d: %d pairs in %d slots", round, len(s.pairs), len(s.slots))
		}
	}
}
