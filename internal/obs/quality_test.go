package obs

import (
	"math"
	"testing"
)

// naive two-pass mean/variance for cross-checking the streaming updates.
func naiveStats(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	variance /= float64(len(xs) - 1)
	return
}

func TestWelfordMatchesTwoPass(t *testing.T) {
	xs := []float64{3.5, -1.25, 0, 42, 7.75, 3.5, 19, -8, 0.001, 5}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	mean, variance := naiveStats(xs)
	if w.Count() != int64(len(xs)) {
		t.Fatalf("count = %d, want %d", w.Count(), len(xs))
	}
	if math.Abs(w.Mean()-mean) > 1e-12 {
		t.Errorf("mean = %v, want %v", w.Mean(), mean)
	}
	if math.Abs(w.Variance()-variance) > 1e-9 {
		t.Errorf("variance = %v, want %v", w.Variance(), variance)
	}
	wantSE := math.Sqrt(variance / float64(len(xs)))
	if math.Abs(w.StdErr()-wantSE) > 1e-12 {
		t.Errorf("stderr = %v, want %v", w.StdErr(), wantSE)
	}
	lo, hi := w.CI95()
	if math.Abs((hi-lo)-2*1.96*wantSE) > 1e-12 {
		t.Errorf("CI95 width = %v, want %v", hi-lo, 2*1.96*wantSE)
	}
	if math.Abs(w.RelStdErr()-wantSE/math.Abs(mean)) > 1e-12 {
		t.Errorf("rse = %v, want %v", w.RelStdErr(), wantSE/math.Abs(mean))
	}
}

// TestWelfordMergeEquivalence: merging per-worker partials must agree with
// one sequential accumulation, whatever the split.
func TestWelfordMergeEquivalence(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = math.Sin(float64(i)) * float64(i%7)
	}
	var whole Welford
	for _, x := range xs {
		whole.Add(x)
	}
	for _, split := range []int{1, 13, 50, 100} {
		var a, b Welford
		for _, x := range xs[:split] {
			a.Add(x)
		}
		for _, x := range xs[split:] {
			b.Add(x)
		}
		a.Merge(b)
		if a.Count() != whole.Count() {
			t.Fatalf("split %d: count %d != %d", split, a.Count(), whole.Count())
		}
		if math.Abs(a.Mean()-whole.Mean()) > 1e-12 {
			t.Errorf("split %d: mean %v != %v", split, a.Mean(), whole.Mean())
		}
		if math.Abs(a.Variance()-whole.Variance()) > 1e-9 {
			t.Errorf("split %d: variance %v != %v", split, a.Variance(), whole.Variance())
		}
	}
	// Merging into an empty accumulator adopts the other side wholesale.
	var empty Welford
	empty.Merge(whole)
	if empty != whole {
		t.Error("merge into empty accumulator did not adopt the state")
	}
}

// TestBernoulliWelford: the closed form agrees with n calls to Add up to
// rounding, including the all-zero, all-one and empty streams.
func TestBernoulliWelford(t *testing.T) {
	for _, c := range []struct{ n, k int64 }{{0, 0}, {1, 1}, {512, 0}, {512, 512}, {512, 37}, {1000, 999}, {130, 65}} {
		var w Welford
		for i := int64(0); i < c.n; i++ {
			if i < c.k {
				w.Add(1)
			} else {
				w.Add(0)
			}
		}
		b := BernoulliWelford(c.n, c.k)
		if b.Count() != w.Count() {
			t.Fatalf("n=%d k=%d: count %d, want %d", c.n, c.k, b.Count(), w.Count())
		}
		if math.Abs(b.Mean()-w.Mean()) > 1e-12 || math.Abs(b.Variance()-w.Variance()) > 1e-12 {
			t.Fatalf("n=%d k=%d: mean %v variance %v, streamed %v and %v",
				c.n, c.k, b.Mean(), b.Variance(), w.Mean(), w.Variance())
		}
	}
}

func TestWelfordDegenerate(t *testing.T) {
	var w Welford
	if w.Variance() != 0 || w.StdErr() != 0 || w.RelStdErr() != 0 {
		t.Error("empty accumulator must report zero spread")
	}
	w.Add(5)
	if w.Variance() != 0 {
		t.Error("single observation must report zero variance")
	}
	lo, hi := w.CI95()
	if lo != 5 || hi != 5 {
		t.Errorf("single-observation CI = [%v, %v], want degenerate [5, 5]", lo, hi)
	}

	// Noise around a zero mean: infinite relative SE, clamped in snapshots.
	var z Welford
	z.Add(1)
	z.Add(-1)
	if !math.IsInf(z.RelStdErr(), 1) {
		t.Errorf("zero-mean rse = %v, want +Inf", z.RelStdErr())
	}
	if snap := z.Snapshot(); snap.RelStdErr != math.MaxFloat64 {
		t.Errorf("snapshot rse = %v, want MaxFloat64 clamp", snap.RelStdErr)
	}
}

// TestQualityNilSafety: the nil-disables-everything contract must extend
// to the new instrument, through both a nil instrument and a nil registry.
func TestQualityNilSafety(t *testing.T) {
	var q *Quality
	q.Observe(3)
	q.Merge(Welford{})
	if got := q.State(); got != (Welford{}) {
		t.Errorf("nil quality state = %+v, want zero", got)
	}
	var r *Registry
	r.Quality("x").Observe(1) // must not panic
	if s := r.Snapshot(); len(s.Quality) != 0 {
		t.Errorf("nil registry snapshot has quality entries: %v", s.Quality)
	}
}

func TestRegistryQuality(t *testing.T) {
	r := NewRegistry()
	q := r.Quality("mc.quality.test")
	if q2 := r.Quality("mc.quality.test"); q2 != q {
		t.Fatal("Quality is not get-or-create")
	}
	q.Observe(2)
	q.Observe(4)
	var part Welford
	part.Add(6)
	q.Merge(part)
	snap := r.Snapshot().Quality["mc.quality.test"]
	if snap.Count != 3 || math.Abs(snap.Mean-4) > 1e-12 {
		t.Errorf("snapshot = %+v, want count 3 mean 4", snap)
	}
	if snap.StdErr <= 0 || snap.CI95Lo >= snap.CI95Hi {
		t.Errorf("snapshot lacks spread: %+v", snap)
	}
}
