package obs

import (
	"sync"
	"testing"
	"time"
)

// TestLatencyRegistry: get-or-create identity, concurrent recording and
// snapshot quantile ordering for the latency-class instrument.
func TestLatencyRegistry(t *testing.T) {
	r := NewRegistry()
	l := r.Latency("query.latency.all")
	if r.Latency("query.latency.all") != l {
		t.Fatal("Latency is not get-or-create")
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= 1000; i++ {
				l.Observe(time.Duration(i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()

	s := r.Snapshot().Latencies["query.latency.all"]
	if s.Count != 4000 {
		t.Fatalf("count = %d, want 4000", s.Count)
	}
	if !(s.MinNS <= s.P50NS && s.P50NS <= s.P90NS && s.P90NS <= s.P99NS &&
		s.P99NS <= s.P999NS && s.P999NS <= s.MaxNS) {
		t.Fatalf("quantiles not ordered: %+v", s)
	}
	if s.MinNS != int64(time.Microsecond) || s.MaxNS != int64(time.Millisecond) {
		t.Fatalf("min/max = %d/%d", s.MinNS, s.MaxNS)
	}
	if mean := s.Mean(); mean < 4e5 || mean > 6e5 {
		t.Fatalf("mean = %v, want ~500µs", mean)
	}
}
