package obs

import (
	"math"
	"sync"
)

// Welford is a streaming mean/variance accumulator (Welford's algorithm,
// with Chan et al.'s pairwise merge for combining per-worker partials).
// The zero value is an empty accumulator ready for use. Welford itself is
// not concurrency-safe; use the Quality registry instrument for shared
// accumulation, or accumulate per worker and Merge.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	// float64() rounds the product: no fused multiply-add on any GOARCH.
	w.m2 += float64(d * (x - w.mean))
}

// BernoulliWelford returns the accumulator of n observations of which k
// are 1 and the rest 0, in closed form: mean k/n and M2 = k(n-k)/n, the
// merge of a constant-1 and a constant-0 accumulator. Up to rounding it is
// the state that n calls to Add would leave.
func BernoulliWelford(n, k int64) Welford {
	if n == 0 {
		return Welford{}
	}
	return Welford{n: n, mean: float64(k) / float64(n), m2: float64(k) * float64(n-k) / float64(n)}
}

// Merge folds another accumulator's state into w.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
}

// Count returns the number of observations.
func (w Welford) Count() int64 { return w.n }

// Mean returns the running mean (0 when empty).
func (w Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (w Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	v := w.m2 / float64(w.n-1)
	if v < 0 {
		return 0 // floating-point cancellation guard
	}
	return v
}

// StdDev returns the sample standard deviation.
func (w Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean, sqrt(Var/n): the spread
// of the Monte Carlo estimate itself rather than of the per-world values.
func (w Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return math.Sqrt(w.Variance() / float64(w.n))
}

// CI95 returns the normal-approximation 95% confidence interval of the
// mean, mean +/- 1.96*stderr. Valid for the sample sizes Monte Carlo
// estimators run at (the CLT regime); degenerate (lo==hi==mean) when the
// accumulator has fewer than two observations.
func (w Welford) CI95() (lo, hi float64) {
	// float64() rounds the product: no fused multiply-add on any GOARCH.
	half := float64(1.96 * w.StdErr())
	return w.mean - half, w.mean + half
}

// RelStdErr returns the relative standard error stderr/|mean| — the
// convergence figure of merit for a Monte Carlo estimate. Zero mean yields
// 0 when the spread is also zero (a converged all-zero estimate) and +Inf
// otherwise (an estimate with noise but no signal).
func (w Welford) RelStdErr() float64 {
	se := w.StdErr()
	if w.mean == 0 {
		if se == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return se / math.Abs(w.mean)
}

// Snapshot freezes the accumulator into its serializable form. An
// infinite relative standard error (noise around a zero mean) is clamped
// to MaxFloat64 so the snapshot stays valid JSON.
func (w Welford) Snapshot() QualitySnapshot {
	lo, hi := w.CI95()
	rse := w.RelStdErr()
	if math.IsInf(rse, 1) {
		rse = math.MaxFloat64
	}
	return QualitySnapshot{
		Count:     w.n,
		Mean:      w.mean,
		Variance:  w.Variance(),
		StdErr:    w.StdErr(),
		CI95Lo:    lo,
		CI95Hi:    hi,
		RelStdErr: rse,
	}
}

// Quality is a registry instrument tracking the statistical health of a
// stream of per-sample values: a concurrency-safe Welford accumulator from
// which standard error, confidence interval and relative-SE convergence
// figures are derived. Like every obs instrument it is nil-safe: a nil
// *Quality drops updates.
type Quality struct {
	mu sync.Mutex
	w  Welford
}

// Observe folds one per-sample value into the stream. No-op on nil.
func (q *Quality) Observe(v float64) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.w.Add(v)
	q.mu.Unlock()
}

// Merge folds a locally accumulated partial into the stream. No-op on nil.
func (q *Quality) Merge(w Welford) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.w.Merge(w)
	q.mu.Unlock()
}

// State returns the current accumulator state (zero for nil).
func (q *Quality) State() Welford {
	if q == nil {
		return Welford{}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.w
}

// QualitySnapshot is the frozen state of one quality stream: the moments
// plus the derived estimator-health figures.
type QualitySnapshot struct {
	Count     int64   `json:"count"`
	Mean      float64 `json:"mean"`
	Variance  float64 `json:"variance"`
	StdErr    float64 `json:"stderr"`
	CI95Lo    float64 `json:"ci95_lo"`
	CI95Hi    float64 `json:"ci95_hi"`
	RelStdErr float64 `json:"rel_stderr"`
}
