package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"chameleon/internal/knn"
	"chameleon/internal/obs"
	"chameleon/internal/query"
	"chameleon/internal/reliability"
	"chameleon/internal/uncertain"
)

// mix is cmd/ugload's default query mix: kind and weight.
var mix = []struct {
	kind   string
	weight int
}{
	{query.KindPairReliability, 4},
	{query.KindKNN, 2},
	{query.KindDegree, 3},
	{query.KindDegreeDistribution, 1},
	{query.KindCentrality, 1},
}

// runQuery runs one round of query-mix: decode the graph, build and warm a
// query.Engine, then drive it with a closed loop of callers that each wait
// for their reply. A traced round splits the window between an untraced
// engine and one with an Observer, then times the cached reliability and
// knn kernels from outside.
func runQuery(e *childEnv) (*roundResult, error) {
	p := e.man.Params
	rr := &roundResult{}
	start := time.Now()
	g, err := loadGraph(e.man.Inputs[0].Path)
	if err != nil {
		return nil, err
	}
	decode := time.Since(start)
	eng, warm, lazy, err := newEngine(g, p, nil)
	if err != nil {
		return nil, err
	}
	rr.SetupS = time.Since(start).Seconds() * e.clock.setupLap()

	window := e.window
	if e.trace {
		window /= 2
	}
	callers := make([]*rand.Rand, workers)
	for c := range callers {
		callers[c] = rand.New(rand.NewPCG(p.Seed, 0xc105ed+uint64(c)))
	}
	gc := readGC()
	_, plainQPS := e.loop(rr, eng, g.NumNodes(), p, callers, window)
	var traced loopResult
	var tracedQPS float64
	var o *obs.Observer
	if e.trace {
		o = obs.NewObserver()
		tracedEng, _, _, err := newEngine(g, p, o)
		if err != nil {
			return nil, err
		}
		e.clock.lap() // reopen the bracket after the untimed set-up
		traced, tracedQPS = e.loop(rr, tracedEng, g.NumNodes(), p, callers, window)
	}
	rr.PeakRSSMB = peakRSSMB()
	if e.round == 0 || e.trace {
		rr.Attempted += probe(rr, eng, g, p)
	}
	if !e.trace {
		return rr, nil
	}

	rr.Layers = map[string]float64{
		"uncertain.decode_ms":      millis(decode),
		"reliability.label_warm_s": warm.Seconds(),
		"query.lazy_precompute_s":  lazy.Seconds(),
		"harness.trace_overhead":   plainQPS / tracedQPS,
	}
	recordGC(rr.Layers, gc)
	for k, m := range mix {
		rr.Layers["query."+m.kind+".p50_us"] = 1000 * percentile(traced.latMS[k], 5000)
		rr.Layers["query."+m.kind+".p99_us"] = 1000 * percentile(traced.latMS[k], 9900)
	}
	snap := o.Registry().Snapshot()
	hits, misses := snap.Counters["mc.label_cache.hits"], snap.Counters["mc.label_cache.misses"]
	if hits+misses > 0 {
		rr.Layers["reliability.label_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}

	est := reliability.Estimator{Samples: p.Worlds, Seed: p.Seed, Workers: workers, Cache: reliability.NewLabelCache()}
	est.WarmCache(g)
	rng := rand.New(rand.NewPCG(p.Seed, 0x7ec))
	var vecUS, knnUS []float64
	for range 100 {
		src := uncertain.NodeID(rng.IntN(g.NumNodes()))
		vecUS = append(vecUS, micros(timed(func() { est.ReliabilityVector(g, src) })))
		var knnErr error
		knnUS = append(knnUS, micros(timed(func() { _, knnErr = knn.Query(g, src, p.KNN, est) })))
		if knnErr != nil {
			return nil, knnErr
		}
	}
	rr.Layers["reliability.vector_us"] = median(vecUS)
	rr.Layers["knn.query_us"] = median(knnUS)
	return rr, nil
}

// newEngine builds the query engine and pays its one-time costs: the
// label-cache warm-up, then one request of every kind, which runs the lazy
// precomputes (centrality, the degree distribution).
func newEngine(g *uncertain.Graph, p params, o *obs.Observer) (eng *query.Engine, warm, lazy time.Duration, err error) {
	eng = query.New(g, query.Options{
		Samples: p.Worlds, Seed: p.Seed, Workers: workers,
		CentralitySamples: p.CentralitySamples, Obs: o,
	})
	ctx := context.Background()
	warm = timed(func() { eng.Warm(ctx) })
	start := time.Now()
	for _, m := range mix {
		if _, err := eng.Do(ctx, query.Request{Kind: m.kind, K: p.KNN}); err != nil {
			return nil, 0, 0, fmt.Errorf("first %s request: %w", m.kind, err)
		}
	}
	return eng, warm, time.Since(start), nil
}

// loopResult is what closed-loop slices measured.
type loopResult struct {
	// latMS holds service latencies by index into mix.
	latMS    [][]float64
	requests int
	errs     int
	firstErr error
	wall     time.Duration
}

func (l *loopResult) merge(o loopResult) {
	if l.latMS == nil {
		l.latMS = make([][]float64, len(mix))
	}
	for k := range mix {
		l.latMS[k] = append(l.latMS[k], o.latMS[k]...)
	}
	l.requests += o.requests
	l.errs += o.errs
	if o.firstErr != nil {
		l.firstErr = o.firstErr
	}
	l.wall += o.wall
}

// loop drives eng in slices of at most a second until the window is used,
// closing each slice with a lap of the host clock. It records every slice
// in rr and returns the slices merged, with their rate at the reference
// speed.
func (e *childEnv) loop(rr *roundResult, eng *query.Engine, n int, p params, callers []*rand.Rand, window time.Duration) (loopResult, float64) {
	var all loopResult
	var refWall float64
	begin := time.Now()
	for left := window; left > 0; left = window - time.Since(begin) {
		l := closedLoop(eng, n, p, callers, min(left, time.Second))
		f := e.clock.lap()
		rr.add(l, f)
		all.merge(l)
		refWall += l.wall.Seconds() * f
	}
	return all, float64(all.requests) / refWall
}

// closedLoop drives eng with one goroutine per caller for the slice; each
// sends its next request when the previous reply arrives.
func closedLoop(eng *query.Engine, n int, p params, callers []*rand.Rand, slice time.Duration) loopResult {
	parts := make([]loopResult, len(callers))
	ctx := context.Background()
	begin := time.Now()
	deadline := begin.Add(slice)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(part *loopResult, rng *rand.Rand) {
			defer wg.Done()
			part.latMS = make([][]float64, len(mix))
			for {
				k, req := nextRequest(rng, n, p.KNN)
				t := time.Now()
				_, err := eng.Do(ctx, req)
				end := time.Now()
				part.latMS[k] = append(part.latMS[k], millis(end.Sub(t)))
				part.requests++
				if err != nil {
					part.errs++
					part.firstErr = err
				}
				if !end.Before(deadline) {
					return
				}
			}
		}(&parts[c], callers[c])
	}
	wg.Wait()
	out := loopResult{wall: time.Since(begin)}
	for _, part := range parts {
		part.wall = 0
		out.merge(part)
	}
	return out
}

// nextRequest draws one request from the mix.
func nextRequest(rng *rand.Rand, n, k int) (int, query.Request) {
	total := 0
	for _, m := range mix {
		total += m.weight
	}
	x := rng.IntN(total)
	i := 0
	for x >= mix[i].weight {
		x -= mix[i].weight
		i++
	}
	req := query.Request{Kind: mix[i].kind}
	switch req.Kind {
	case query.KindPairReliability:
		req.U, req.V = uncertain.NodeID(rng.IntN(n)), uncertain.NodeID(rng.IntN(n))
	case query.KindKNN:
		req.U, req.K = uncertain.NodeID(rng.IntN(n)), k
	case query.KindDegree, query.KindCentrality:
		req.U = uncertain.NodeID(rng.IntN(n))
	}
	return i, req
}

// add records one slice at the reference speed: every latency, the
// slice's requests per second, and the failures.
func (r *roundResult) add(l loopResult, f float64) {
	for _, lat := range l.latMS {
		for _, ms := range lat {
			r.LatencyMS = append(r.LatencyMS, ms*f)
		}
	}
	r.RatePerS = append(r.RatePerS, float64(l.requests)/(l.wall.Seconds()*f))
	r.Attempted += l.requests
	if l.errs > 0 {
		r.Failed += l.errs
		r.Problems = append(r.Problems, fmt.Sprintf("%d query errors, the last: %v", l.errs, l.firstErr))
	}
}

// probe checks a fixed set of pair_reliability and knn answers against an
// uncached estimator with the engine's configuration: the label cache
// must not change a single bit. It returns the number of requests made.
func probe(rr *roundResult, eng *query.Engine, g *uncertain.Graph, p params) int {
	est := reliability.Estimator{Samples: p.Worlds, Seed: p.Seed, Workers: workers}
	rng := rand.New(rand.NewPCG(p.Seed, 0x9b0be))
	ctx := context.Background()
	const pairs = 4
	for range pairs {
		u, v := uncertain.NodeID(rng.IntN(g.NumNodes())), uncertain.NodeID(rng.IntN(g.NumNodes()))
		got, err := eng.Do(ctx, query.Request{Kind: query.KindPairReliability, U: u, V: v})
		if want := est.PairReliability(g, u, v); err != nil || got.Value != want {
			rr.fail("pair_reliability(%d, %d) = %v (error %v), uncached %v", u, v, got.Value, err, want)
		}
		got, err = eng.Do(ctx, query.Request{Kind: query.KindKNN, U: u, K: p.KNN})
		want, werr := knn.Query(g, u, p.KNN, est)
		if err != nil || werr != nil || !sameNeighbors(got.Neighbors, want) {
			rr.fail("knn(%d, %d) differs from the uncached estimator (errors %v, %v)", u, p.KNN, err, werr)
		}
	}
	return 2 * pairs
}

func sameNeighbors(got []query.Neighbor, want []knn.Neighbor) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Node != want[i].Node || got[i].Reliability != want[i].Reliability {
			return false
		}
	}
	return true
}
