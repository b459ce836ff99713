// Package hdr implements a High Dynamic Range histogram for latency
// recording: log-linear bucketing with a fixed relative-error bound,
// lock-free concurrent recording, mergeable state, and a
// coordinated-omission corrector for open-loop load measurement.
//
// The value axis (nanoseconds, or any non-negative int64 unit) is split
// into exponential "octaves", each subdivided into 2^m linear
// sub-buckets. Within an octave every bucket spans at most value/2^m, so
// any quantile read from the bucket bounds is within a relative error of
// 2^-m (RelError) of the exact order statistic — the classical
// HdrHistogram guarantee. Memory is a few KB per histogram (one int64
// counter per bucket), independent of the number of recorded values, and
// every histogram has the same layout, so two merge by bucket-count
// addition — an associative, commutative operation, which is what makes
// the shard-and-merge Recorder sound.
//
// Like the rest of the obs subsystem, a nil *Histogram or *Recorder is a
// usable no-op.
package hdr

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"
)

// MaxValue is the highest trackable value: 2^42 ns is about 73 minutes,
// far beyond any request latency this repo measures. Values above it
// saturate into the top bucket.
const MaxValue = int64(1) << 42

// The bucket layout. subHalf = 2^m linear sub-buckets per octave; values
// below subCount = 2·subHalf are exact (unit-width buckets), values above
// land in octave e >= 1 where bucket width is 2^e and the relative error
// is bounded by 1/subHalf.
const (
	m        = 7
	subHalf  = int64(1) << m
	subCount = int64(2) << m
)

// RelError bounds the relative error of Snapshot.Quantile: 2^-7, i.e.
// quantiles accurate to within 0.79%, at a cost of 128 linear
// sub-buckets per octave.
const RelError = 1.0 / float64(subHalf)

// nBuckets is the number of buckets up to and including MaxValue's.
var nBuckets = index(MaxValue) + 1

// index maps a value to its bucket. Values in [0, subCount) are exact;
// above that, octave e = len(v) - (m+1) >= 1 holds values in
// [subCount<<(e-1), subCount<<e) across subHalf buckets of width 2^e.
func index(v int64) int {
	if v < 0 {
		v = 0
	}
	if v > MaxValue {
		v = MaxValue
	}
	if v < subCount {
		return int(v)
	}
	e := uint(bits.Len64(uint64(v))) - (m + 1)
	return int(subCount + int64(e-1)*subHalf + (v >> e) - subHalf)
}

// bounds returns bucket i's inclusive value range.
func bounds(i int) (lo, hi int64) {
	if int64(i) < subCount {
		return int64(i), int64(i)
	}
	rem := int64(i) - subCount
	e := uint(rem/subHalf) + 1
	r := rem % subHalf
	lo = (subHalf + r) << e
	return lo, lo + (1 << e) - 1
}

// Histogram is a concurrent HDR histogram. Record is lock-free: one
// atomic add per bucket plus count/sum/min/max maintenance. Construct
// with New.
type Histogram struct {
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // MaxInt64 until the first recording
	max    atomic.Int64
}

// New builds an empty histogram.
func New() *Histogram {
	h := &Histogram{counts: make([]atomic.Int64, nBuckets)}
	h.min.Store(math.MaxInt64)
	return h
}

// Record adds one value. Negative values clamp to zero and values above
// MaxValue clamp to it (saturating into the top bucket),
// so count, sum, min and max always describe the clamped stream and the
// sum cannot overflow on outliers. No-op on a nil histogram.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	if v > MaxValue {
		v = MaxValue
	}
	h.counts[index(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.min.Load()
		if v >= old || h.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// RecordCorrected records v and back-fills the coordinated-omission gap:
// when a measured operation stalls past the expected interval between
// operations (the open-loop arrival period), the operations that SHOULD
// have started during the stall never ran, so their latencies were never
// recorded and naive percentiles are biased low. Following HdrHistogram,
// the corrector synthesizes those missing samples on a linear ramp:
// v-interval, v-2·interval, ... down to the interval. A non-positive
// interval degrades to plain Record.
func (h *Histogram) RecordCorrected(v, expectedInterval int64) {
	if h == nil {
		return
	}
	h.Record(v)
	if expectedInterval <= 0 {
		return
	}
	for x := v - expectedInterval; x >= expectedInterval; x -= expectedInterval {
		h.Record(x)
	}
}

// Merge folds o's recordings into h. Merging is bucket-count addition,
// so it is associative and commutative and never loses precision. Safe
// while both sides keep recording (the merged state then reflects some
// interleaving). A nil o is a no-op.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	for i := range o.counts {
		if n := o.counts[i].Load(); n != 0 {
			h.counts[i].Add(n)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	for {
		om, hm := o.min.Load(), h.min.Load()
		if om >= hm || h.min.CompareAndSwap(hm, om) {
			break
		}
	}
	for {
		om, hm := o.max.Load(), h.max.Load()
		if om <= hm || h.max.CompareAndSwap(hm, om) {
			break
		}
	}
}

// Count returns the number of recordings (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Snapshot freezes the histogram into an immutable, query-able state.
// Returns an empty snapshot on a nil histogram.
func (h *Histogram) Snapshot() Snapshot {
	if h == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
		Max:    h.max.Load(),
	}
	if min := h.min.Load(); min != math.MaxInt64 {
		s.Min = min
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Snapshot is a frozen histogram state. The zero value is an empty
// snapshot whose Quantile returns 0.
type Snapshot struct {
	Counts []int64
	Count  int64
	Sum    int64
	Min    int64
	Max    int64
}

// Quantile returns the q-quantile (0 < q <= 1) of the recorded values,
// within the relative-error bound: the reported value is >=
// the exact order statistic and exceeds it by at most RelError × value.
// Returns 0 for an empty snapshot.
func (s Snapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for i, n := range s.Counts {
		cum += n
		if cum >= rank {
			_, hi := bounds(i)
			// The exact order statistic lies inside bucket i and is <= the
			// recorded maximum, so min(hi, Max) still upper-bounds it while
			// keeping p100 == Max exactly.
			if s.Max > 0 && hi > s.Max {
				return s.Max
			}
			return hi
		}
	}
	return s.Max
}

// Mean returns the arithmetic mean of the recorded values (exact: it is
// computed from the untruncated sum, not the buckets).
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Recorder shards recordings over several histograms so concurrent
// writers on different cores do not contend on the same counter cache
// lines, and merges them on Snapshot. The shard is picked per recording
// from the calling thread's lock-free RNG, so any goroutine may record
// through one shared Recorder.
type Recorder struct {
	shards []*Histogram
	mask   uint64
}

// NewRecorder builds a sharded recorder with GOMAXPROCS shards, rounded
// up to a power of two and capped at 8 (the recording rates this repo
// sees saturate long after that).
func NewRecorder() *Recorder {
	shards := min(runtime.GOMAXPROCS(0), 8)
	n := 1
	for n < shards {
		n <<= 1
	}
	r := &Recorder{shards: make([]*Histogram, n), mask: uint64(n - 1)}
	for i := range r.shards {
		r.shards[i] = New()
	}
	return r
}

// Record adds one value to a randomly chosen shard. No-op on nil.
func (r *Recorder) Record(v int64) {
	if r == nil {
		return
	}
	r.shards[rand.Uint64()&r.mask].Record(v)
}

// RecordDuration records a duration in nanoseconds.
func (r *Recorder) RecordDuration(d time.Duration) { r.Record(int64(d)) }

// RecordCorrected is the sharded form of Histogram.RecordCorrected; the
// synthesized back-fill samples land on the same shard as the observed
// one.
func (r *Recorder) RecordCorrected(v, expectedInterval int64) {
	if r == nil {
		return
	}
	r.shards[rand.Uint64()&r.mask].RecordCorrected(v, expectedInterval)
}

// Count returns the total recordings across shards (0 on nil).
func (r *Recorder) Count() int64 {
	if r == nil {
		return 0
	}
	var n int64
	for _, h := range r.shards {
		n += h.Count()
	}
	return n
}

// Snapshot merges the shards into one frozen state. Returns an empty
// snapshot on nil.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	merged := New()
	for _, h := range r.shards {
		merged.Merge(h)
	}
	return merged.Snapshot()
}
