package uncertain

import (
	"math/bits"
	"math/rand/v2"
)

// The edge index maps a packed endpoint key u<<32|v (u < v) to its edge
// index. It is one open-addressed table with linear probing: slot s holds
// an edge index + 1, or 0 when empty. A slot stores no key — a probe
// compares the edge's packed key in g.uv — so the table costs 4 bytes a
// slot. Its length is a power of two at least twice the edge count, so it
// is at most half full and probe runs stay short.
//
// The table always holds what inserting edges 0, 1, …, m-1 in index
// order into an empty table of its length would: FromEdges and a
// doubling insert in that order, and AddEdge appends the next index.
// Nothing is ever removed, so the table needs no tombstones.

// hashSeed keys the slot hash per process, as Go maps do: no choice of
// node IDs can steer many keys into one probe run. The layout it yields is
// never observable, since lookups return edge indices, not slots.
var hashSeed = rand.Uint64()

// pack is the index key of the pair (u, v), in that order.
func pack(u, v NodeID) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// home is key's first probe slot in a table of length mask+1. Both
// factors of the 128-bit product depend on the key (the mix of Go's
// portable runtime hash), so regular keys — consecutive IDs, a star's
// shared endpoint — do not land on a lattice of slots, as they would
// under a multiply by a constant.
func home(key uint64, mask int) int {
	hi, lo := bits.Mul64(key^0xe7037ed1a0b428db, key^hashSeed^0xa0761d6478bd642f)
	return int((hi ^ lo) & uint64(mask))
}

// indexSize is the table length for m edges: the smallest power of two
// that is at least 2m and at least 8.
func indexSize(m int) int {
	s := 8
	for s < 2*m {
		s <<= 1
	}
	return s
}

// lookup returns key's slot and edge index, or, when key is absent, the
// empty slot that ends its probe run and -1.
func (g *Graph) lookup(key uint64) (slot int, edge int32) {
	mask := len(g.index) - 1
	for s := home(key, mask); ; s = (s + 1) & mask {
		e := g.index[s]
		if e == 0 {
			return s, -1
		}
		if g.uv[e-1] == key {
			return s, e - 1
		}
	}
}

// indexLast files the newest edge, whose key lookup placed at the empty
// slot, doubling the table instead when one more entry would fill it past
// half.
func (g *Graph) indexLast(slot int) {
	m := len(g.uv)
	if 2*m <= len(g.index) {
		g.index[slot] = int32(m)
		return
	}
	g.index = make([]int32, 2*len(g.index))
	for i, key := range g.uv {
		s, _ := g.lookup(key)
		g.index[s] = int32(i + 1)
	}
}
