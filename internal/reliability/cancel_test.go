package reliability

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"chameleon/internal/obs"
	"chameleon/internal/uncertain"
)

func cancelTestGraph(t *testing.T) *uncertain.Graph {
	t.Helper()
	g := uncertain.New(40)
	for u := 0; u < 39; u++ {
		if err := g.AddEdge(uncertain.NodeID(u), uncertain.NodeID(u+1), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	for u := 0; u < 30; u += 3 {
		if err := g.AddEdge(uncertain.NodeID(u), uncertain.NodeID(u+5), 0.3); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestForEachSampleCancelledUpFront: a context that is already done stops
// the serial and the parallel path at the first chunk boundary, and the
// sample-balance invariant (per-worker counters sum to worlds_sampled)
// holds for the truncated run.
func TestForEachSampleCancelledUpFront(t *testing.T) {
	g := cancelTestGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		o := obs.NewObserver()
		est := Estimator{Samples: 2048, Seed: 9, Workers: workers, Obs: o, Ctx: ctx}
		var calls atomic.Int64
		est.forEachSample(g, nil, func(i int, sc *scratch) float64 {
			calls.Add(1)
			return 0
		})
		if calls.Load() != 0 {
			t.Errorf("workers=%d: %d samples drawn under a pre-cancelled context, want 0", workers, calls.Load())
		}
		snap := o.Registry().Snapshot()
		var workerSum int64
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, "mc.worker.") {
				workerSum += v
			}
		}
		if got := snap.Counters["mc.worlds_sampled"]; got != workerSum {
			t.Errorf("workers=%d: worlds_sampled=%d but per-worker counters sum to %d", workers, got, workerSum)
		}
	}
}

// TestForEachSampleCancelMidway: cancelling while sampling is in flight
// stops every worker at its next chunk boundary — strictly fewer worlds
// than the budget are drawn — and the counters account for exactly the
// worlds that fn saw (two per call when paired), on the fixed budget and
// the adaptive rounds alike: a chunk a round drew after the merged prefix
// ended is still counted.
func TestForEachSampleCancelMidway(t *testing.T) {
	g := cancelTestGraph(t)
	const n = 1 << 14
	for _, tc := range []struct {
		name     string
		workers  int
		adaptive bool
		paired   bool
	}{
		{"fixed/serial", 1, false, false},
		{"fixed/parallel", 4, false, false},
		{"adaptive/serial", 1, true, false},
		{"adaptive/parallel", 4, true, false},
		{"paired/fixed/serial", 1, false, true},
		{"paired/fixed/parallel", 4, false, true},
		{"paired/adaptive/serial", 1, true, true},
		{"paired/adaptive/parallel", 4, true, true},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		o := obs.NewObserver()
		est := Estimator{Samples: n, Seed: 9, Workers: tc.workers, Obs: o, Ctx: ctx}
		if tc.adaptive {
			// Unreachable target: only the cancellation can stop the run.
			est.TargetRSE, est.MaxSamples = 1e-12, n
		}
		var h uncertain.View
		worldsPerCall := int64(1)
		if tc.paired {
			h, worldsPerCall = g, 2
		}
		var calls atomic.Int64
		est.forEachSample(g, h, func(i int, sc *scratch) float64 {
			if calls.Add(1) == 3*sampleChunk {
				cancel()
			}
			return float64(i & 7)
		})
		drawn := calls.Load()
		if drawn >= n {
			t.Errorf("%s: cancellation did not stop sampling (drew all %d worlds)", tc.name, n)
		}
		if drawn < 3*sampleChunk {
			t.Errorf("%s: drew %d worlds, want at least the %d before cancel", tc.name, drawn, 3*sampleChunk)
		}
		snap := o.Registry().Snapshot()
		if got := snap.Counters["mc.worlds_sampled"]; got != worldsPerCall*drawn {
			t.Errorf("%s: worlds_sampled=%d, fn saw %d calls of %d worlds", tc.name, got, drawn, worldsPerCall)
		}
		var workerSum int64
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, "mc.worker.") {
				workerSum += v
			}
		}
		if workerSum != worldsPerCall*drawn {
			t.Errorf("%s: per-worker counters sum to %d, fn saw %d calls of %d worlds", tc.name, workerSum, drawn, worldsPerCall)
		}
	}
}

// TestNilContextSamplesEverything: the default (no Ctx) configuration is
// untouched by the cancellation plumbing.
func TestNilContextSamplesEverything(t *testing.T) {
	g := cancelTestGraph(t)
	est := Estimator{Samples: 300, Seed: 4, Workers: 2}
	var calls atomic.Int64
	est.forEachSample(g, nil, func(i int, sc *scratch) float64 {
		calls.Add(1)
		return 0
	})
	if calls.Load() != 300 {
		t.Fatalf("drew %d worlds, want 300", calls.Load())
	}
}

// TestCancelledEstimateNotCached: a labeling cut short by cancellation
// must not enter the label cache, where it would poison later (resumed)
// estimator calls keyed identically.
func TestCancelledEstimateNotCached(t *testing.T) {
	g := cancelTestGraph(t)
	cache := NewLabelCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	est := Estimator{Samples: 256, Seed: 5, Cache: cache, Ctx: ctx}
	if _, err := est.Discrepancy(g, g); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 0 {
		t.Fatalf("cancelled labeling was cached (%d entries), want 0", cache.Len())
	}

	// The same estimator without the cancelled context fills the cache and
	// computes a clean self-discrepancy of zero.
	est.Ctx = context.Background()
	d, err := est.Discrepancy(g, g)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("self-discrepancy = %v, want 0", d)
	}
	if cache.Len() == 0 {
		t.Fatal("clean labeling was not cached")
	}
}

// TestCancelledQualityNotRecorded: cancelled estimates must not publish
// estimator-quality streams (their accumulators cover a truncated sample
// set).
func TestCancelledQualityNotRecorded(t *testing.T) {
	g := cancelTestGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := obs.NewObserver()
	est := Estimator{Samples: 256, Seed: 5, Obs: o, Ctx: ctx}
	est.ExpectedConnectedPairs(g)
	if q := o.Registry().Snapshot().Quality; len(q) != 0 {
		t.Fatalf("cancelled estimate recorded quality streams: %v", q)
	}
}

// TestEdgeRelevanceCancelled: EdgeRelevance under a cancelled context
// returns a discardable zero vector of the right shape instead of scanning
// uninitialized arena rows.
func TestEdgeRelevanceCancelled(t *testing.T) {
	g := cancelTestGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	est := Estimator{Samples: 256, Seed: 5, Ctx: ctx}
	rel := est.EdgeRelevance(g)
	if len(rel) != g.NumEdges() {
		t.Fatalf("len = %d, want %d", len(rel), g.NumEdges())
	}
	for i, v := range rel {
		if v != 0 {
			t.Fatalf("rel[%d] = %v, want 0 under cancellation", i, v)
		}
	}
}
