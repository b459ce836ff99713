package reliability

import (
	"math"
	"math/bits"
	"sync"
	"time"

	"chameleon/internal/uncertain"
)

// labelKey identifies one immutable Monte Carlo labeling: the graph
// snapshot (pointer identity plus mutation version, so in-place edits
// invalidate) and everything that determines the drawn worlds — the full
// sampling-mode tuple (mode, seed, fixed budget, and the
// adaptive target/cap, which together determine the effective sample count
// since the stopping rule is a deterministic function of the drawn
// stream). Workers does not participate: the worlds, labels and stopping
// point are identical however sampling is scheduled.
type labelKey struct {
	// g is the graph's identity: the pointer hashes by identity, which is
	// exactly the snapshot semantics the version field extends.
	g          *uncertain.Graph
	version    uint64
	samples    int
	seed       uint64
	mode       uncertain.SamplingMode
	targetRSE  uint64 // math.Float64bits of TargetRSE (0 = fixed budget)
	maxSamples int    // adaptive cap; 0 outside adaptive mode
}

// labelSet is a transposed component-label matrix over N sampled worlds:
// lab[v*stride+s] is vertex v's component representative in world s, so
// one vertex's labels across all worlds are contiguous — the layout the
// discrepancy pair loop streams over. cc[s] is world s's connected-pair
// count, carried alongside so discrepancy and expected-connectivity calls
// share one sampling pass. stride is the allocated row width (the sampling
// budget); samples <= stride is the count that actually fed the estimate —
// adaptive runs truncate to the stopping point without reshaping the
// matrix.
//
// A cached set also carries hub planes, built on first use: one bit per
// (vertex, counted world), set when the vertex shares that world's
// component with the hub (see buildPlanes).
type labelSet struct {
	n       int
	samples int
	stride  int
	lab     []int32
	cc      []int64

	planesOnce sync.Once
	words      int      // plane row width: ceil(samples/64)
	planes     []uint64 // planes[v*words+s/64] bit s%64: v is with the hub in world s
}

// row returns vertex v's labels across the counted sampled worlds.
func (ls *labelSet) row(v int) []int32 {
	return ls.lab[v*ls.stride : v*ls.stride+ls.samples]
}

// grow resizes the matrix for n vertices and `samples` worlds, reusing
// capacity. Every counted cell is overwritten by the sampling pass, so no
// zeroing; hub planes describe the old labels and are dropped.
func (ls *labelSet) grow(n, samples int) {
	ls.n, ls.samples, ls.stride = n, samples, samples
	ls.planesOnce = sync.Once{}
	ls.words, ls.planes = 0, nil
	if need := n * samples; cap(ls.lab) < need {
		ls.lab = make([]int32, need)
	} else {
		ls.lab = ls.lab[:need]
	}
	if cap(ls.cc) < samples {
		ls.cc = make([]int64, samples)
	} else {
		ls.cc = ls.cc[:samples]
	}
}

// truncate narrows the counted world range to the adaptive stopping point:
// rows keep their allocated stride, but row() and cc expose only the
// contiguous prefix the stopping rule accepted.
func (ls *labelSet) truncate(worlds int) {
	if worlds < ls.samples {
		ls.samples = worlds
		ls.cc = ls.cc[:worlds]
	}
}

// buildPlanes fills the hub planes once per label set. The hub is the
// vertex of largest structural degree (lowest id on ties): the one most
// likely to sit in each world's giant component, so most bits of most
// rows are set and a source's count is mostly a popcount. Any hub gives
// exact counts; the choice only decides how many label compares
// reliabilities skips. Call it only on a set no one is still filling.
func (ls *labelSet) buildPlanes(g *uncertain.Graph) {
	ls.planesOnce.Do(func() {
		hub := 0
		for v := 1; v < ls.n; v++ {
			if g.Degree(uncertain.NodeID(v)) > g.Degree(uncertain.NodeID(hub)) {
				hub = v
			}
		}
		words := (ls.samples + 63) / 64
		planes := make([]uint64, ls.n*words)
		if ls.n > 0 {
			rh := ls.row(hub)
			for v := 0; v < ls.n; v++ {
				rv, pv := ls.row(v), planes[v*words:(v+1)*words]
				for s, l := range rh {
					if rv[s] == l {
						pv[s>>6] |= 1 << (s & 63)
					}
				}
			}
		}
		ls.words, ls.planes = words, planes
	})
}

// reliabilities sets out[v] to the number of counted worlds in which v
// shares src's component, times inv. With hub planes built, the worlds in
// which src is with the hub count as popcount(H[src] & H[v]): there v is
// with src exactly when it is with the hub. In a world where src is apart
// from the hub, a v with the hub is apart from src too, so labels are
// compared only in the worlds where both are apart from it. When src is
// with the hub in fewer than half the worlds (no giant component, or src
// outside it) that leaves most worlds to compare one at a time, and the
// plain row compare is faster.
func (ls *labelSet) reliabilities(src int, out []float64, inv float64) {
	rs := ls.row(src)
	words := ls.words
	if ls.planes != nil {
		hs := ls.planes[src*words : (src+1)*words]
		with := 0
		for _, x := range hs {
			with += bits.OnesCount64(x)
		}
		if 2*with >= len(rs) {
			// apart[w]: the counted worlds of word w where src is apart
			// from the hub.
			apart := make([]uint64, words)
			for w, x := range hs {
				apart[w] = ^x
			}
			if r := len(rs) % 64; r != 0 {
				apart[words-1] &= 1<<r - 1
			}
			for v := range out {
				hv, rv := ls.planes[v*words:(v+1)*words], ls.row(v)
				c := 0
				for w, x := range hs {
					y := hv[w]
					c += bits.OnesCount64(x & y)
					for m := apart[w] &^ y; m != 0; m &= m - 1 {
						s := w<<6 | bits.TrailingZeros64(m)
						if rv[s] == rs[s] {
							c++
						}
					}
				}
				out[v] = float64(c) * inv
			}
			return
		}
	}
	for v := range out {
		rv := ls.row(v)
		c := 0
		for s := range rs {
			if rv[s] == rs[s] {
				c++
			}
		}
		out[v] = float64(c) * inv
	}
}

// labelSetPool recycles label matrices for estimators running without a
// cache, where the matrices would otherwise be per-call garbage (hundreds
// of KB each on the bench graphs).
var labelSetPool = sync.Pool{New: func() any { return new(labelSet) }}

// labelCacheCap bounds the number of retained label sets. Each entry is
// O(|V|·N) int32s; the sweep working set is one original graph labeling
// plus a handful of obfuscated candidates, so a small LRU suffices.
const labelCacheCap = 8

// LabelCache memoizes sampled component labels across estimator calls.
// The σ-search and the evaluation sweep both resample the *original* graph
// for every candidate comparison; with a shared cache that graph is
// sampled and labeled once per (samples, seed) configuration and every
// subsequent Discrepancy/SampledPairDiscrepancy/ExpectedConnectedPairs
// call against it is a lookup.
//
// Entries are invalidated by the graph version embedded in the key: any
// AddEdge/SetProb bumps the version, so stale labelings are simply never
// hit again and age out of the LRU. A LabelCache is safe for concurrent
// use.
type LabelCache struct {
	mu      sync.Mutex
	entries map[labelKey]*labelSet
	order   []labelKey // recency order, least recently used first
}

// NewLabelCache returns an empty label cache.
func NewLabelCache() *LabelCache {
	return &LabelCache{entries: make(map[labelKey]*labelSet)}
}

func (c *LabelCache) get(k labelKey) *labelSet {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ls, ok := c.entries[k]
	if !ok {
		return nil
	}
	// LRU touch: move k to the back so a hot entry — the original graph,
	// re-queried for every candidate of a search or sweep — survives the
	// churn of single-use candidate labelings.
	for i, cur := range c.order {
		if cur == k {
			copy(c.order[i:], c.order[i+1:])
			c.order[len(c.order)-1] = k
			break
		}
	}
	return ls
}

func (c *LabelCache) put(k labelKey, ls *labelSet) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[k]; ok {
		return
	}
	for len(c.order) >= labelCacheCap {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
	c.entries[k] = ls
	c.order = append(c.order, k)
}

// Len returns the number of cached label sets.
func (c *LabelCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (e Estimator) labelKeyFor(g *uncertain.Graph) labelKey {
	k := labelKey{g: g, version: g.Version(), samples: e.samples(), seed: e.Seed, mode: e.Mode}
	if e.adaptive() {
		k.targetRSE = math.Float64bits(e.TargetRSE)
		k.maxSamples = e.maxSamples()
	}
	return k
}

// cachedLabels returns the memoized label set for g under this estimator
// configuration, or nil when absent (or no cache is attached). It never
// computes.
func (e Estimator) cachedLabels(g *uncertain.Graph) *labelSet {
	if e.Cache == nil {
		return nil
	}
	ls := e.Cache.get(e.labelKeyFor(g))
	if ls != nil {
		e.Obs.Registry().Counter("mc.label_cache.hits").Inc()
	}
	return ls
}

// sampleLabelsT returns the transposed label matrix for g, from the cache
// when possible, sampling (and, with a cache attached, storing) otherwise.
// The label values are exactly those of SampleLabels for the same
// configuration; only the layout differs.
func (e Estimator) sampleLabelsT(g *uncertain.Graph) *labelSet {
	if ls := e.cachedLabels(g); ls != nil {
		return ls
	}
	nv := g.NumNodes()
	ns := e.budget()
	var ls *labelSet
	if e.Cache == nil {
		ls = labelSetPool.Get().(*labelSet)
	} else {
		ls = new(labelSet)
	}
	ls.grow(nv, ns)
	stat := e.forEachSample(g, nil, func(i int, sc *scratch) int64 {
		d, pairs := sc.componentsPairs()
		ls.cc[i] = pairs
		lab := ls.lab
		for v := 0; v < nv; v++ {
			lab[v*ns+i] = int32(d.Find(v))
		}
		return pairs
	})
	if e.adaptive() {
		ls.truncate(e.effSamples(stat.Welford))
	}
	if e.Cache != nil {
		if e.cancelled() {
			// A labeling cut short by cancellation holds uninitialized
			// cells; caching it would poison later (resumed) calls in the
			// same process. The caller discards it via Ctx.Err().
			return ls
		}
		e.Obs.Registry().Counter("mc.label_cache.misses").Inc()
		e.Cache.put(e.labelKeyFor(g), ls)
	}
	return ls
}

// WarmCache samples and memoizes g's component labels under this
// estimator's configuration, so subsequent cache-routed calls
// (PairReliability, ReliabilityVector, ExpectedConnectedPairs,
// Discrepancy) are pure lookups. The query plane calls it once at
// startup to keep the sampling cost off the first request's latency.
// No-op without a Cache; a cancelled warm-up (Estimator.Ctx) leaves the
// cache unpopulated.
func (e Estimator) WarmCache(g *uncertain.Graph) {
	if e.Cache == nil {
		return
	}
	defer e.timeOp("WarmCache", time.Now())
	ls := e.sampleLabelsT(g)
	if !e.cancelled() {
		ls.buildPlanes(g)
	}
}

// releaseLabels hands an uncached label set back to the pool once a caller
// is done streaming it. With a cache attached the set is owned by the
// cache and retained for future hits, so release is a no-op.
func (e Estimator) releaseLabels(ls *labelSet) {
	if e.Cache == nil {
		labelSetPool.Put(ls)
	}
}
