package obs

import (
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrent hammers one counter from many goroutines; run
// under -race this also proves the absence of data races.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits") // get-or-create racing on purpose
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

// TestGauge checks last-write-wins semantics and nil safety.
func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("level")
	g.Set(1.5)
	g.Set(-2.25)
	if got := r.Gauge("level").Value(); got != -2.25 {
		t.Fatalf("gauge = %v, want -2.25", got)
	}
}

// TestNilRegistryIsNoop: a nil registry and its nil instruments must
// absorb every operation.
func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(5)
	r.Gauge("y").Set(1)
	r.Latency("l").Observe(time.Millisecond)
	if got := r.Counter("x").Value(); got != 0 {
		t.Fatalf("nil counter = %d", got)
	}
	if got := r.Latency("l").Count(); got != 0 {
		t.Fatalf("nil latency count = %d", got)
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Latencies) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", snap)
	}
	var o *Observer
	o.Log("dropped")
	o.AttachSpan(NewSpan("s"))
	if o.Registry() != nil || o.Spans() != nil {
		t.Fatal("nil observer must expose nil registry and no spans")
	}
}
