package reliability

import (
	"math"
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
	// g is the view's identity. Both implementations (*uncertain.Graph,
	// *uncertain.CSR) are pointers, so the interface value is comparable
	// and hashes by identity, which is exactly the snapshot semantics the
	// version field extends.
	g          uncertain.View
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
type labelSet struct {
	n       int
	samples int
	stride  int
	lab     []int32
	cc      []int64
}

// row returns vertex v's labels across the counted sampled worlds.
func (ls *labelSet) row(v int) []int32 {
	return ls.lab[v*ls.stride : v*ls.stride+ls.samples]
}

// grow resizes the matrix for n vertices and `samples` worlds, reusing
// capacity. Every counted cell is overwritten by the sampling pass, so no
// zeroing.
func (ls *labelSet) grow(n, samples int) {
	ls.n, ls.samples, ls.stride = n, samples, samples
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

func (e Estimator) labelKeyFor(g uncertain.View) labelKey {
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
func (e Estimator) cachedLabels(g uncertain.View) *labelSet {
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
func (e Estimator) sampleLabelsT(g uncertain.View) *labelSet {
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
	w := e.forEachSample(g, nil, func(i int, sc *scratch) float64 {
		d, pairs := sc.componentsPairs()
		ls.cc[i] = pairs
		lab := ls.lab
		for v := 0; v < nv; v++ {
			lab[v*ns+i] = int32(d.Find(v))
		}
		return float64(pairs)
	})
	if e.adaptive() {
		ls.truncate(e.effSamples(w))
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
func (e Estimator) WarmCache(g uncertain.View) {
	if e.Cache == nil {
		return
	}
	defer e.timeOp("WarmCache", time.Now())
	e.sampleLabelsT(g)
}

// releaseLabels hands an uncached label set back to the pool once a caller
// is done streaming it. With a cache attached the set is owned by the
// cache and retained for future hits, so release is a no-op.
func (e Estimator) releaseLabels(ls *labelSet) {
	if e.Cache == nil {
		labelSetPool.Put(ls)
	}
}
