package hdr

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
)

// exactQuantile is the reference order statistic the histogram
// approximates: rank ceil(q*n) of the sorted sample, matching
// Snapshot.Quantile's rank convention.
func exactQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestQuantileWithinRelativeError is the property pinning the package's
// central claim: for arbitrary sample sets and every probed quantile,
// the histogram's answer is >= the exact order statistic and exceeds it
// by at most RelError.
func TestQuantileWithinRelativeError(t *testing.T) {
	quantiles := []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}
	rng := rand.New(rand.NewPCG(42, 7))

	for trial := 0; trial < 60; trial++ {
		h := New()
		n := 100 + rng.IntN(5000)
		vals := make([]int64, n)
		for i := range vals {
			switch trial % 3 {
			case 0: // log-uniform across the whole range (latency-like)
				vals[i] = int64(math.Exp(rng.Float64() * math.Log(float64(MaxValue))))
			case 1: // small exact-range integers
				vals[i] = rng.Int64N(subCount)
			default: // heavy-tailed mixture
				vals[i] = rng.Int64N(1000)
				if rng.IntN(10) == 0 {
					vals[i] = rng.Int64N(MaxValue)
				}
			}
			h.Record(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		s := h.Snapshot()
		for _, q := range quantiles {
			exact := exactQuantile(vals, q)
			got := s.Quantile(q)
			if got < exact {
				t.Fatalf("trial %d q=%v: got %d below exact %d", trial, q, got, exact)
			}
			if diff := got - exact; float64(diff) > RelError*float64(exact) {
				t.Fatalf("trial %d q=%v: got %d vs exact %d, error %d exceeds bound %v",
					trial, q, got, exact, diff, RelError*float64(exact))
			}
		}
		if s.Min != vals[0] || s.Max != vals[n-1] {
			t.Fatalf("trial %d: min/max = %d/%d, want %d/%d", trial, s.Min, s.Max, vals[0], vals[n-1])
		}
		var sum int64
		for _, v := range vals {
			sum += v
		}
		if s.Sum != sum || s.Count != int64(n) {
			t.Fatalf("trial %d: sum/count = %d/%d, want %d/%d", trial, s.Sum, s.Count, sum, n)
		}
	}
}

// TestQuantileEdgeCases: empty histograms, single values, saturation
// above MaxValue and negative clamping.
func TestQuantileEdgeCases(t *testing.T) {
	var nilH *Histogram
	nilH.Record(5) // must not panic
	nilH.RecordCorrected(5, 1)
	if s := nilH.Snapshot(); s.Quantile(0.5) != 0 || s.Count != 0 {
		t.Error("nil histogram snapshot not empty")
	}

	h := New()
	if got := h.Snapshot().Quantile(0.99); got != 0 {
		t.Errorf("empty quantile = %d, want 0", got)
	}
	h.Record(777)
	for _, q := range []float64{0.001, 0.5, 1} {
		if got := h.Snapshot().Quantile(q); got != 777 {
			t.Errorf("single-value quantile(%v) = %d, want 777", q, got)
		}
	}

	h = New()
	h.Record(-5)                // clamps to 0
	h.Record(math.MaxInt64)     // saturates into the top bucket
	h.Record(math.MaxInt64 / 2) // likewise
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != 0 {
		t.Errorf("min = %d, want 0 (clamped)", s.Min)
	}
	if got := s.Quantile(1); got != s.Max {
		t.Errorf("p100 = %d, want recorded max %d", got, s.Max)
	}
}

// TestMergeAssociativeCommutative: merging is bucket addition, so every
// association and order of the same three histograms must yield an
// identical snapshot (counts, totals, extremes and therefore quantiles).
func TestMergeAssociativeCommutative(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	mk := func(n int, scale int64) *Histogram {
		h := New()
		for i := 0; i < n; i++ {
			h.Record(rng.Int64N(scale))
		}
		return h
	}
	fill := []func() *Histogram{
		func() *Histogram { return mk(500, 1000) },
		func() *Histogram { return mk(300, 1<<30) },
		func() *Histogram { return mk(700, 1<<12) },
	}
	// Rebuild identical source histograms per grouping (merge mutates the
	// receiver) by re-deriving them from fixed seeds.
	build := func() (a, b, c *Histogram) {
		rng = rand.New(rand.NewPCG(9, 9))
		return fill[0](), fill[1](), fill[2]()
	}

	a, b, c := build()
	left := New()
	for _, h := range []*Histogram{a, b, c} { // (a+b)+c
		left.Merge(h)
	}
	a, b, c = build()
	bc := New()
	bc.Merge(b)
	bc.Merge(c)
	right := New()
	right.Merge(a)
	right.Merge(bc) // a+(b+c)

	a, b, c = build()
	rev := New()
	for _, h := range []*Histogram{c, a, b} { // reordered
		rev.Merge(h)
	}

	ls, rs, vs := left.Snapshot(), right.Snapshot(), rev.Snapshot()
	for _, pair := range []struct {
		name string
		x, y Snapshot
	}{{"associativity", ls, rs}, {"commutativity", ls, vs}} {
		if pair.x.Count != pair.y.Count || pair.x.Sum != pair.y.Sum ||
			pair.x.Min != pair.y.Min || pair.x.Max != pair.y.Max {
			t.Fatalf("%s: totals differ: %+v vs %+v", pair.name, pair.x.Count, pair.y.Count)
		}
		for i := range pair.x.Counts {
			if pair.x.Counts[i] != pair.y.Counts[i] {
				t.Fatalf("%s: bucket %d differs: %d vs %d", pair.name, i, pair.x.Counts[i], pair.y.Counts[i])
			}
		}
		for _, q := range []float64{0.5, 0.99, 0.999} {
			if pair.x.Quantile(q) != pair.y.Quantile(q) {
				t.Fatalf("%s: quantile(%v) differs", pair.name, q)
			}
		}
	}
}

// TestCoordinatedOmissionCorrection simulates the pinned-stall scenario
// CO correction exists for: a FIFO server with 1ms service time fed by
// 10ms open-loop arrivals freezes for 2 seconds mid-run. Ground truth is
// the intended-start latency of every arrival (queue waits included).
// Naive service-time recording misses the queued arrivals' waits
// entirely and reports a ~1ms p99; RecordCorrected back-fills the stall
// on a linear ramp and must recover the intended-start p99 to within the
// ramp's granularity.
func TestCoordinatedOmissionCorrection(t *testing.T) {
	const (
		interval = int64(10_000_000) // 10ms arrival period
		base     = int64(1_000_000)  // 1ms service time
		stall    = int64(2_000_000_000)
		nOps     = 1000
		stallAt  = 100
	)
	truth := New()
	naive := New()
	corrected := New()

	serverFree := int64(0)
	for i := 0; i < nOps; i++ {
		arrival := int64(i) * interval
		start := arrival
		if serverFree > start {
			start = serverFree
		}
		svc := base
		if i == stallAt {
			svc = stall
		}
		complete := start + svc
		serverFree = complete
		truth.Record(complete - arrival) // intended-start latency
		naive.Record(svc)                // what a blocked (closed-loop) probe sees
		corrected.RecordCorrected(svc, interval)
	}

	truthP99 := truth.Snapshot().Quantile(0.99)
	naiveP99 := naive.Snapshot().Quantile(0.99)
	correctedP99 := corrected.Snapshot().Quantile(0.99)

	if truthP99 < stall/2 {
		t.Fatalf("scenario broken: intended-start p99 = %d, want a stall-dominated value", truthP99)
	}
	if naiveP99 > truthP99/100 {
		t.Fatalf("naive p99 = %d not << truth %d; the omission being corrected is absent", naiveP99, truthP99)
	}
	ratio := float64(correctedP99) / float64(truthP99)
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("corrected p99 = %d vs intended-start truth %d (ratio %.3f), want within 15%%",
			correctedP99, truthP99, ratio)
	}
}

// TestRecorderConcurrent hammers one shared Recorder from many
// goroutines (the lock-free shard-and-merge claim, meaningful under
// -race) and checks the merged snapshot accounts for every recording.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	const (
		writers = 8
		perW    = 5000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 3))
			for i := 0; i < perW; i++ {
				r.Record(rng.Int64N(1 << 25))
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Count != writers*perW {
		t.Fatalf("count = %d, want %d", s.Count, writers*perW)
	}
	if r.Count() != writers*perW {
		t.Fatalf("Count() = %d, want %d", r.Count(), writers*perW)
	}
	if p50 := s.Quantile(0.5); p50 <= 0 || p50 > 1<<25 {
		t.Fatalf("p50 = %d out of range", p50)
	}

	var nilR *Recorder
	nilR.Record(1)
	nilR.RecordCorrected(1, 1)
	if nilR.Count() != 0 || nilR.Snapshot().Count != 0 {
		t.Error("nil recorder not a no-op")
	}
}
