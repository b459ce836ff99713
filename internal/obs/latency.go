package obs

import (
	"time"

	"chameleon/internal/obs/hdr"
)

// Latency is the registry's distribution instrument: a sharded HDR
// histogram recording durations in nanoseconds. Unlike fixed buckets,
// which saturate at the largest bound, a Latency answers p50/p99/p999
// within a guaranteed relative-error bound across the whole nanosecond-
// to-minutes range, which is what request-path SLOs need. Recording is
// lock-free; a nil *Latency drops updates like every other instrument.
type Latency struct{ rec *hdr.Recorder }

func newLatency() *Latency {
	return &Latency{rec: hdr.NewRecorder(hdr.Config{}, 0)}
}

// Observe records one duration. No-op on a nil latency.
func (l *Latency) Observe(d time.Duration) {
	if l != nil {
		l.rec.Record(int64(d))
	}
}

// ObserveNS records one duration given in nanoseconds.
func (l *Latency) ObserveNS(ns int64) {
	if l != nil {
		l.rec.Record(ns)
	}
}

// ObserveCorrected records a duration with coordinated-omission
// back-fill: when d overran the expected interval between operations,
// the operations that should have started during the overrun are
// synthesized on a linear ramp (see hdr.Histogram.RecordCorrected).
func (l *Latency) ObserveCorrected(d, expectedInterval time.Duration) {
	if l != nil {
		l.rec.RecordCorrected(int64(d), int64(expectedInterval))
	}
}

// Count returns the number of recordings (0 on nil).
func (l *Latency) Count() int64 {
	if l == nil {
		return 0
	}
	return l.rec.Count()
}

// Snapshot freezes the latency distribution into its summary statistics.
func (l *Latency) Snapshot() LatencySnapshot {
	if l == nil {
		return LatencySnapshot{}
	}
	s := l.rec.Snapshot()
	return LatencySnapshot{
		Count:  s.Count,
		SumNS:  s.Sum,
		MinNS:  s.Min,
		MaxNS:  s.Max,
		P50NS:  s.Quantile(0.50),
		P90NS:  s.Quantile(0.90),
		P99NS:  s.Quantile(0.99),
		P999NS: s.Quantile(0.999),
	}
}

// LatencySnapshot is the frozen state of one Latency: the SLO quantiles
// precomputed at snapshot time (each within the HDR relative-error
// bound), plus totals. All fields are plain integers so the snapshot
// round-trips through JSON (the journal) without loss.
type LatencySnapshot struct {
	Count  int64 `json:"count"`
	SumNS  int64 `json:"sum_ns"`
	MinNS  int64 `json:"min_ns"`
	MaxNS  int64 `json:"max_ns"`
	P50NS  int64 `json:"p50_ns"`
	P90NS  int64 `json:"p90_ns"`
	P99NS  int64 `json:"p99_ns"`
	P999NS int64 `json:"p999_ns"`
}

// Mean returns the mean recorded duration in nanoseconds.
func (s LatencySnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNS) / float64(s.Count)
}
