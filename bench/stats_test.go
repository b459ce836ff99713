package main

import "testing"

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3, 1, 2, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5.5, 1.25, 9, 2, 7.75, 3.5, 4}, 2, 4, 7.75},
		{[]float64{42}, 42, 42, 42},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedianDoesNotReorderInput(t *testing.T) {
	xs := []float64{9, 1, 5, 3}
	if got := median(xs); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if xs[0] != 9 || xs[3] != 3 {
		t.Errorf("median sorted its argument: %v", xs)
	}
}

// seq returns n, n-1, ..., 1: out of order, so the helpers must sort, and
// the value at rank r is r.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n          int
		pct, value float64
		ok         bool
	}{
		{5, 0, 0, false},
		{19, 0, 0, false},
		{20, 50, 10, true},
		{99, 50, 50, true},
		{100, 90, 90, true},
		{999, 90, 900, true},
		{1000, 99, 990, true},
		{10000, 99.9, 9990, true},
		{100000, 99.99, 99990, true},
	}
	for _, c := range cases {
		pct, value, ok := tail(seq(c.n))
		if pct != c.pct || value != c.value || ok != c.ok {
			t.Errorf("tail(n=%d) = p%v %v %v; want p%v %v %v", c.n, pct, value, ok, c.pct, c.value, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(200)
	for _, c := range []struct {
		bp   int
		want float64
	}{{5000, 100}, {9900, 198}, {10000, 200}, {1, 1}} {
		if got := percentile(xs, c.bp); got != c.want {
			t.Errorf("percentile(bp=%d) = %v, want %v", c.bp, got, c.want)
		}
	}
	if got := percentile(nil, 5000); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}
