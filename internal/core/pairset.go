package core

import (
	"math/bits"

	"chameleon/internal/uncertain"
)

// pairSet is an attempt's set of injected vertex pairs: the pairs in
// insertion order, and an open-addressed table with linear probing over
// them. A slot holds epoch<<32 | (index into pairs)+1 and counts as empty
// unless its epoch is the current one, so reset empties the table by
// bumping the epoch instead of clearing it. The table is a power of two at
// least twice the pair count, doubled (and refilled from pairs) when an
// insert would fill it past half; its capacity survives reset, so a slot's
// steady state allocates nothing.
type pairSet struct {
	pairs [][2]uncertain.NodeID
	slots []uint64
	epoch uint32
}

// newPairSet sizes the table for hint pairs.
func newPairSet(hint int) pairSet {
	size := 8
	for size < 2*hint {
		size <<= 1
	}
	return pairSet{slots: make([]uint64, size), epoch: 1}
}

// reset empties the set.
func (s *pairSet) reset() {
	s.pairs = s.pairs[:0]
	if s.epoch++; s.epoch == 0 {
		clear(s.slots)
		s.epoch = 1
	}
}

// pairSlot is the first probe slot of the pair (u, v) in a table of
// length mask+1: the hi^lo fold of a 128-bit product whose factors both
// depend on the pair, as in uncertain's edge index. It needs no seed:
// the pairs are random draws from Q, not chosen by the input.
func pairSlot(u, v uncertain.NodeID, mask int) int {
	key := uint64(uint32(u))<<32 | uint64(uint32(v))
	hi, lo := bits.Mul64(key^0xe7037ed1a0b428db, key^0xa0761d6478bd642f)
	return int((hi ^ lo) & uint64(mask))
}

// add inserts the pair (u, v) and reports whether it was absent.
func (s *pairSet) add(u, v uncertain.NodeID) bool {
	pair := [2]uncertain.NodeID{u, v}
	mask := len(s.slots) - 1
	i := pairSlot(u, v, mask)
	for ; uint32(s.slots[i]>>32) == s.epoch; i = (i + 1) & mask {
		if s.pairs[uint32(s.slots[i])-1] == pair {
			return false
		}
	}
	s.pairs = append(s.pairs, pair)
	if 2*len(s.pairs) <= len(s.slots) {
		s.slots[i] = uint64(s.epoch)<<32 | uint64(len(s.pairs))
		return true
	}
	s.slots, s.epoch = make([]uint64, 2*len(s.slots)), 1
	mask = len(s.slots) - 1
	for j, p := range s.pairs {
		i := pairSlot(p[0], p[1], mask)
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = 1<<32 | uint64(j+1)
	}
	return true
}
