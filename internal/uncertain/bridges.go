package uncertain

// Bridges answers, for present edges of one world, whether removing the
// edge splits its component and how many nodes it cuts off. It runs one
// iterative low-link (Tarjan) pass per component, over the world's present
// edges only, and only over the components a query reaches. The state is
// reused across worlds: Reset forgets the previous world in O(1) and the
// first Split after it clears the discovery times once, so a world that is
// never queried costs nothing.
type Bridges struct {
	disc  []int32 // discovery time, 0 = not yet visited in this world
	low   []int32 // smallest discovery time reachable by one back edge from the subtree
	size  []int32 // nodes in the DFS subtree
	via   []int32 // edge that discovered the node, -1 at a root
	next  []int32 // cursor into the node's adjacency
	stack []int32
	clock int32
	stale bool
}

// Reset forgets the previous world's pass. Call it before querying a new
// (or changed) world.
func (b *Bridges) Reset() { b.stale = true }

// Split returns how many nodes removing edge i from w separates from the
// rest of their component: the size of the side that does not keep the
// DFS root when i is a bridge, 0 when i is absent or lies on a cycle.
// Removing a bridge that splits off s nodes from a component of c nodes
// disconnects exactly s·(c − s) pairs.
func (b *Bridges) Split(w *World, i int) int {
	if !w.bits.Get(i) {
		return 0
	}
	if b.stale || len(b.disc) != w.g.n {
		b.prepare(w.g.n)
	}
	e := w.g.edges[i]
	b.visit(w, e.U)
	child := e.V
	if b.via[child] != int32(i) {
		child = e.U
		if b.via[child] != int32(i) {
			return 0 // a back edge: it closes a cycle
		}
	}
	// A tree edge p→c is a bridge iff no back edge from c's subtree
	// reaches above c, i.e. low[c] == disc[c].
	if b.low[child] != b.disc[child] {
		return 0
	}
	return int(b.size[child])
}

// prepare sizes the state for n nodes and marks every node unvisited.
func (b *Bridges) prepare(n int) {
	if len(b.disc) != n {
		b.disc = make([]int32, n)
		b.low = make([]int32, n)
		b.size = make([]int32, n)
		b.via = make([]int32, n)
		b.next = make([]int32, n)
	} else {
		clear(b.disc)
	}
	b.clock, b.stale = 0, false
}

// visit runs the low-link pass over root's component unless an earlier
// query already did.
func (b *Bridges) visit(w *World, root NodeID) {
	if b.disc[root] != 0 {
		return
	}
	b.discover(root, -1)
	for len(b.stack) > 0 {
		v := b.stack[len(b.stack)-1]
		if adj := w.g.adj[v]; int(b.next[v]) < len(adj) {
			he := adj[b.next[v]]
			b.next[v]++
			if he.Edge == b.via[v] || !w.bits.Get(int(he.Edge)) {
				continue
			}
			if b.disc[he.To] == 0 {
				b.discover(he.To, he.Edge)
			} else if b.disc[he.To] < b.low[v] {
				b.low[v] = b.disc[he.To]
			}
			continue
		}
		b.stack = b.stack[:len(b.stack)-1]
		if len(b.stack) > 0 {
			p := b.stack[len(b.stack)-1]
			b.low[p] = min(b.low[p], b.low[v])
			b.size[p] += b.size[v]
		}
	}
}

func (b *Bridges) discover(v NodeID, via int32) {
	b.clock++
	b.disc[v], b.low[v], b.size[v], b.via[v], b.next[v] = b.clock, b.clock, 1, via, 0
	b.stack = append(b.stack, v)
}
