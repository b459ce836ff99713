package privacy

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"chameleon/internal/uncertain"
)

// Commonness computes the theta-commonness (Definition 4) of each value in
// omega against the whole population: C_theta(w) = sum_u phi_{0,theta}(|w - w_u|),
// with phi the normal density with standard deviation theta.
//
// Vertices that share a value share a kernel row, so the cost is D² kernel
// evaluations and D·n additions for D distinct values, not n² of each.
// Each row entry is the rounded product norm·exp(·), and every sum adds the
// n entries in input order, so the result is bit-identical to the
// all-pairs loop that rounds each product before adding it (a NaN result,
// from a NaN or infinite value, may differ in sign and payload).
func Commonness(values []float64, theta float64) []float64 {
	return CommonnessWorkers(values, theta, 1)
}

// CommonnessWorkers is Commonness with its kernel rows shared out over
// workers goroutines (0 means GOMAXPROCS). Each row is still summed by
// one goroutine in input order, so the result is bit-identical to
// Commonness for every worker count.
func CommonnessWorkers(values []float64, theta float64, workers int) []float64 {
	c, _ := commonness(values, theta, workers)
	return c
}

// commonness is CommonnessWorkers that also returns D, the number of
// distinct values.
func commonness(values []float64, theta float64, workers int) ([]float64, int) {
	n := len(values)
	out := make([]float64, n)
	if n == 0 {
		return out, 0
	}
	distinct, idx := distinctSlots(values)
	nd := len(distinct)
	if theta <= 0 || math.IsNaN(theta) {
		// Degenerate kernel: commonness is the exact-match count. A NaN
		// matches nothing, itself included.
		counts := make([]float64, nd)
		for _, s := range idx {
			counts[s]++
		}
		for i, s := range idx {
			if !math.IsNaN(values[i]) {
				out[i] = counts[s]
			}
		}
		return out, nd
	}
	norm := 1 / (theta * math.Sqrt(2*math.Pi))
	inv2t2 := 1 / (2 * theta * theta)
	// Each group of four distinct values is one task. Its goroutine's tab
	// interleaves their kernel rows: each x fills one cache line with four
	// independent exps, and one pass over idx gathers the four sums from
	// it into four accumulators. The last group repeats the last value;
	// its surplus sums are never read. Groups write disjoint sums slots.
	const rows = 4
	sums := make([]float64, nd+rows)
	var next atomic.Int64
	groups := func() {
		tab := make([]float64, rows*nd)
		var ws [rows]float64
		for {
			s0 := rows * int(next.Add(1)-1)
			if s0 >= nd {
				return
			}
			for r := range ws {
				ws[r] = distinct[min(s0+r, nd-1)]
			}
			for j, x := range distinct {
				t := (*[rows]float64)(tab[rows*j:])
				d0, d1, d2, d3 := ws[0]-x, ws[1]-x, ws[2]-x, ws[3]-x
				t[0] = norm * math.Exp(-d0*d0*inv2t2)
				t[1] = norm * math.Exp(-d1*d1*inv2t2)
				t[2] = norm * math.Exp(-d2*d2*inv2t2)
				t[3] = norm * math.Exp(-d3*d3*inv2t2)
			}
			var c0, c1, c2, c3 float64
			for _, s := range idx {
				t := (*[rows]float64)(tab[rows*int(s):])
				c0 += t[0]
				c1 += t[1]
				c2 += t[2]
				c3 += t[3]
			}
			sums[s0], sums[s0+1], sums[s0+2], sums[s0+3] = c0, c1, c2, c3
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, (nd+rows-1)/rows); workers <= 1 {
		groups()
	} else {
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				groups()
			}()
		}
		wg.Wait()
	}
	for i, s := range idx {
		out[i] = sums[s]
	}
	return out, nd
}

// distinctSlots returns the distinct values in first-seen order and, per
// value, the index of its slot. +0 and -0 share a slot, which is exact: the
// kernel of either against any x is the same. Each NaN gets its own.
func distinctSlots(values []float64) (distinct []float64, idx []int32) {
	slot := make(map[float64]int32)
	idx = make([]int32, len(values))
	for i, v := range values {
		s, ok := slot[v]
		if !ok {
			s = int32(len(distinct))
			slot[v] = s
			distinct = append(distinct, v)
		}
		idx[i] = s
	}
	return distinct, idx
}

// Uniqueness returns the theta-uniqueness of each vertex property value:
// U_theta(w) = 1 / C_theta(w). Higher means the vertex's property value is
// rarer and the vertex needs more anonymization noise.
func Uniqueness(values []float64, theta float64) []float64 {
	return invert(Commonness(values, theta))
}

// invert turns commonness into uniqueness in place.
func invert(c []float64) []float64 {
	for i, ci := range c {
		if ci > 0 {
			c[i] = 1 / ci
		} else {
			c[i] = math.Inf(1)
		}
	}
	return c
}

// VertexUniqueness computes the uniqueness score of every vertex of g over
// the expected-degree property with the kernel bandwidth theta = sigma_G,
// the standard deviation of the property over the graph (the paper's
// uncertainty-aware choice in Section V-C), on GOMAXPROCS goroutines.
func VertexUniqueness(g *uncertain.Graph) []float64 {
	u, _ := VertexUniquenessDistinct(g, 0)
	return u
}

// VertexUniquenessDistinct is VertexUniqueness on workers goroutines (0
// means GOMAXPROCS) that also returns the number of distinct expected
// degrees, which its cost is quadratic in. The scores are bit-identical
// for every worker count.
func VertexUniquenessDistinct(g *uncertain.Graph, workers int) ([]float64, int) {
	theta := g.DegreeStdDev()
	if theta <= 0 {
		theta = 1
	}
	c, d := commonness(g.ExpectedDegrees(), theta, workers)
	return invert(c), d
}
