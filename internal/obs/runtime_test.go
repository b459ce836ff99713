package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
	"testing"
)

// TestRuntimeSamplerGauges: one Sample publishes plausible values for the
// scalar runtime gauges.
func TestRuntimeSamplerGauges(t *testing.T) {
	reg := NewRegistry()
	s := NewRuntimeSampler(reg)
	s.Sample()

	snap := reg.Snapshot()
	if g := snap.Gauges[RuntimeGoroutines]; g < 1 {
		t.Fatalf("%s = %v, want >= 1", RuntimeGoroutines, g)
	}
	if g := snap.Gauges[RuntimeHeapBytes]; g <= 0 {
		t.Fatalf("%s = %v, want > 0", RuntimeHeapBytes, g)
	}
	if g := snap.Gauges[RuntimeTotalBytes]; g < snap.Gauges[RuntimeHeapBytes] {
		t.Fatalf("total %v < heap %v", g, snap.Gauges[RuntimeHeapBytes])
	}
	if g := snap.Gauges[RuntimeGomaxprocs]; g != float64(runtime.GOMAXPROCS(0)) {
		t.Fatalf("%s = %v, want %d", RuntimeGomaxprocs, g, runtime.GOMAXPROCS(0))
	}
	if g := snap.Gauges[RuntimeGCCycles]; g < 0 {
		t.Fatalf("%s = %v, want >= 0", RuntimeGCCycles, g)
	}
}

// TestRuntimeSamplerGCPauseDelta: the first Sample only records the
// baseline; after forced GC cycles a later Sample replays the new pauses
// into the registry latency, each at a bucket midpoint of the runtime's
// own pause histogram, so min and max stay inside its finite range.
func TestRuntimeSamplerGCPauseDelta(t *testing.T) {
	reg := NewRegistry()
	s := NewRuntimeSampler(reg)
	s.Sample() // baseline — must not replay process history

	if n := reg.Snapshot().Latencies[RuntimeGCPause].Count; n != 0 {
		t.Fatalf("baseline sample replayed %d historical pauses", n)
	}

	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	s.Sample()
	l, ok := reg.Snapshot().Latencies[RuntimeGCPause]
	if !ok || l.Count == 0 {
		t.Fatal("no GC pauses recorded after forced GC cycles")
	}

	pauses := []metrics.Sample{{Name: "/gc/pauses:seconds"}}
	metrics.Read(pauses)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, b := range pauses[0].Value.Float64Histogram().Buckets {
		if !math.IsInf(b, 0) {
			lo, hi = math.Min(lo, b), math.Max(hi, b)
		}
	}
	// A stop-the-world pause takes far more than a nanosecond, so a zero
	// max would mean the replay lost the seconds-to-nanoseconds scaling.
	if l.MaxNS <= 0 || float64(l.MinNS) < math.Floor(lo*1e9) || float64(l.MaxNS) > math.Ceil(hi*1e9) {
		t.Fatalf("pause min/max = %dns/%dns, want max > 0 and both within the runtime buckets' finite range [%gs, %gs]",
			l.MinNS, l.MaxNS, lo, hi)
	}
}

// TestRuntimeSamplerSchedLatency: quantile gauges exist, are ordered, and
// finite once goroutines have been scheduled.
func TestRuntimeSamplerSchedLatency(t *testing.T) {
	reg := NewRegistry()
	s := NewRuntimeSampler(reg)
	done := make(chan struct{})
	for i := 0; i < 16; i++ {
		go func() { done <- struct{}{} }()
	}
	for i := 0; i < 16; i++ {
		<-done
	}
	s.Sample()
	snap := reg.Snapshot()
	p50 := snap.Gauges[RuntimeSchedLatency+".p50"]
	p90 := snap.Gauges[RuntimeSchedLatency+".p90"]
	p99 := snap.Gauges[RuntimeSchedLatency+".p99"]
	if p50 < 0 || p90 < p50 || p99 < p90 {
		t.Fatalf("latency quantiles out of order: p50=%v p90=%v p99=%v", p50, p90, p99)
	}
	if math.IsInf(p99, 0) || math.IsNaN(p99) {
		t.Fatalf("p99 = %v, want finite", p99)
	}
}

// TestRuntimeSamplerNil: a nil registry yields a nil sampler and Sample
// stays a no-op, matching the package's nil-safety convention.
func TestRuntimeSamplerNil(t *testing.T) {
	if s := NewRuntimeSampler(nil); s != nil {
		t.Fatal("nil registry must yield nil sampler")
	}
	var s *RuntimeSampler
	s.Sample() // must not panic
}

// TestBucketMidpoint covers the infinite-edge fallbacks.
func TestBucketMidpoint(t *testing.T) {
	inf := math.Inf(1)
	bounds := []float64{math.Inf(-1), 1, 3, inf}
	for i, want := range []float64{1, 2, 3} {
		if got := bucketMidpoint(bounds, i); got != want {
			t.Fatalf("bucket %d midpoint = %v, want %v", i, got, want)
		}
	}
	if got := bucketMidpoint(bounds, 7); got != 0 {
		t.Fatalf("out-of-range midpoint = %v, want 0", got)
	}
}
