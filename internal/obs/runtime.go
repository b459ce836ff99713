package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
)

// Names of the gauges and latency instruments the runtime sampler publishes.
const (
	RuntimeGoroutines   = "runtime.goroutines"
	RuntimeGomaxprocs   = "runtime.gomaxprocs"
	RuntimeHeapBytes    = "runtime.heap_bytes"
	RuntimeTotalBytes   = "runtime.total_bytes"
	RuntimeGCCycles     = "runtime.gc_cycles"
	RuntimeGCPause      = "runtime.gc_pause_seconds"
	RuntimeSchedLatency = "runtime.sched_latency_seconds"
)

// maxPauseReplay caps how many individual pause observations one Sample
// call replays into the registry latency; a long gap between samples on
// a GC-heavy process must not turn a poll tick into an O(pauses) stall.
const maxPauseReplay = 10_000

// RuntimeSampler reads the runtime/metrics package and publishes Go
// runtime health — goroutines, heap, GC pauses, scheduler latency — into
// a Registry, from which the expose server's Prometheus endpoint picks
// them up like any other gauge. Sampling is pull-based: the caller (the
// expose differ tick) invokes Sample at its own cadence, so the sampler
// adds no goroutine and no overhead when telemetry is off.
//
// GC pauses arrive from the runtime as a cumulative histogram; Sample
// replays the delta since the previous call into a registry Latency by
// observing each new pause at its bucket midpoint. Scheduler latencies
// can accumulate millions of counts, so those are summarized into
// p50/p90/p99 gauges computed directly from the cumulative distribution
// instead of replayed.
type RuntimeSampler struct {
	reg     *Registry
	samples []metrics.Sample
	// prevPause holds the previous cumulative GC pause bucket counts,
	// aligned with the runtime histogram's bucket layout.
	prevPause []uint64
}

// NewRuntimeSampler returns a sampler publishing into reg. A nil registry
// yields a nil sampler, on which Sample is a no-op.
func NewRuntimeSampler(reg *Registry) *RuntimeSampler {
	if reg == nil {
		return nil
	}
	s := &RuntimeSampler{reg: reg}
	for _, name := range []string{
		"/sched/goroutines:goroutines",
		"/memory/classes/heap/objects:bytes",
		"/memory/classes/total:bytes",
		"/gc/cycles/total:gc-cycles",
		"/gc/pauses:seconds",
		"/sched/latencies:seconds",
	} {
		s.samples = append(s.samples, metrics.Sample{Name: name})
	}
	return s
}

// Sample reads the runtime metrics once and updates the registry.
func (s *RuntimeSampler) Sample() {
	if s == nil {
		return
	}
	metrics.Read(s.samples)
	for _, m := range s.samples {
		switch m.Name {
		case "/sched/goroutines:goroutines":
			s.reg.Gauge(RuntimeGoroutines).Set(sampleFloat(m.Value))
		case "/memory/classes/heap/objects:bytes":
			s.reg.Gauge(RuntimeHeapBytes).Set(sampleFloat(m.Value))
		case "/memory/classes/total:bytes":
			s.reg.Gauge(RuntimeTotalBytes).Set(sampleFloat(m.Value))
		case "/gc/cycles/total:gc-cycles":
			s.reg.Gauge(RuntimeGCCycles).Set(sampleFloat(m.Value))
		case "/gc/pauses:seconds":
			s.samplePauses(m.Value)
		case "/sched/latencies:seconds":
			s.sampleSchedLatency(m.Value)
		}
	}
	s.reg.Gauge(RuntimeGomaxprocs).Set(float64(runtime.GOMAXPROCS(0)))
}

func sampleFloat(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	default:
		return 0
	}
}

// samplePauses replays new GC pause observations (the delta of the
// cumulative runtime histogram since the last call) into the registry
// latency, each at its bucket's midpoint.
func (s *RuntimeSampler) samplePauses(v metrics.Value) {
	if v.Kind() != metrics.KindFloat64Histogram {
		return
	}
	h := v.Float64Histogram()
	if h == nil || len(h.Counts) == 0 {
		return
	}
	if len(s.prevPause) != len(h.Counts) {
		// First sample (or a layout change): record the baseline without
		// replaying history — pauses from before the sampler existed are
		// not this run's signal.
		s.prevPause = append(s.prevPause[:0], h.Counts...)
		return
	}
	lat := s.reg.Latency(RuntimeGCPause)
	replayed := 0
	for i, c := range h.Counts {
		delta := c - s.prevPause[i]
		s.prevPause[i] = c
		if delta == 0 {
			continue
		}
		mid := int64(bucketMidpoint(h.Buckets, i) * 1e9)
		for j := uint64(0); j < delta && replayed < maxPauseReplay; j++ {
			lat.ObserveNS(mid)
			replayed++
		}
	}
}

// sampleSchedLatency publishes p50/p90/p99 goroutine scheduling latency
// gauges from the cumulative runtime distribution.
func (s *RuntimeSampler) sampleSchedLatency(v metrics.Value) {
	if v.Kind() != metrics.KindFloat64Histogram {
		return
	}
	h := v.Float64Histogram()
	if h == nil || len(h.Counts) == 0 {
		return
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return
	}
	for _, q := range []struct {
		name string
		p    float64
	}{
		{RuntimeSchedLatency + ".p50", 0.50},
		{RuntimeSchedLatency + ".p90", 0.90},
		{RuntimeSchedLatency + ".p99", 0.99},
	} {
		s.reg.Gauge(q.name).Set(histQuantile(h, total, q.p))
	}
}

// histQuantile returns the q-quantile of a runtime Float64Histogram,
// reading each bucket at its midpoint.
func histQuantile(h *metrics.Float64Histogram, total uint64, q float64) float64 {
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			return bucketMidpoint(h.Buckets, i)
		}
	}
	return bucketMidpoint(h.Buckets, len(h.Counts)-1)
}

// bucketMidpoint returns a representative value for bucket i of a runtime
// histogram with len(Counts)+1 boundaries. Infinite edges fall back to the
// finite neighbor.
func bucketMidpoint(bounds []float64, i int) float64 {
	if i < 0 || i+1 >= len(bounds) {
		return 0
	}
	lo, hi := bounds[i], bounds[i+1]
	switch {
	case math.IsInf(lo, -1) && math.IsInf(hi, +1):
		return 0
	case math.IsInf(lo, -1):
		return hi
	case math.IsInf(hi, +1):
		return lo
	default:
		return (lo + hi) / 2
	}
}
