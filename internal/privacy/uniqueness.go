package privacy

import (
	"math"
	"slices"
	"sort"

	"chameleon/internal/portable"
	"chameleon/internal/uncertain"
)

// CommonnessRelErr is the relative error bound of Commonness: every finite
// result is within CommonnessRelErr of the exact kernel sum. Half of it
// bounds the transform's approximation (Taylor truncation and the
// far-field cut); the other half is headroom for its floating-point
// rounding. ALGORITHMS.md §3 derives it.
const CommonnessRelErr = 1e-12

// boxRho is the half-width of a transform box, in bandwidths.
const boxRho = 0.5

// KernelStats is the work of one commonness computation.
type KernelStats struct {
	// Distinct is the number of distinct values (each NaN counts once).
	Distinct int
	// Boxes is the number of boxes the transform cut the values into.
	Boxes int
	// KernelEvals is the number of exponentials the transform made.
	KernelEvals int
}

// Commonness computes the theta-commonness (Definition 4) of each value in
// omega against the whole population: C_theta(w) = sum_u phi_{0,theta}(|w - w_u|),
// with phi the normal density with standard deviation theta.
//
// The sum is a 1-D fast Gauss transform over the sorted distinct values,
// within CommonnessRelErr of the all-pairs sum in O(n log n) time. The
// result depends only on the multiset of values, not on their order or on
// the host CPU. A NaN value makes every result NaN, an infinite one is its
// own NaN result and adds nothing to the others; theta <= 0 or NaN counts
// exact matches, and theta = +Inf gives 0 (NaN where a distance squared
// overflows), as the all-pairs loop does.
func Commonness(values []float64, theta float64) []float64 {
	c, _ := commonness(values, theta)
	return c
}

// commonness is Commonness that also reports its work.
func commonness(values []float64, theta float64) ([]float64, KernelStats) {
	out := make([]float64, len(values))
	if len(values) == 0 {
		return out, KernelStats{}
	}
	// Collapse the sorted values to distinct values with counts.
	// slices.Sort puts NaNs first; each is its own value. +0 and -0 are
	// one value, which is exact: the kernel of either against any x is
	// the same.
	sorted := slices.Clone(values)
	slices.Sort(sorted)
	nans := 0
	for nans < len(sorted) && math.IsNaN(sorted[nans]) {
		nans++
	}
	var xs, cnt []float64
	for _, v := range sorted[nans:] {
		if len(xs) > 0 && v == xs[len(xs)-1] {
			cnt[len(cnt)-1]++
		} else {
			xs = append(xs, v)
			cnt = append(cnt, 1)
		}
	}
	st := KernelStats{Distinct: len(xs) + nans}

	c := make([]float64, len(xs)) // commonness of each distinct value
	switch {
	case theta <= 0 || math.IsNaN(theta):
		// Degenerate kernel: commonness is the exact-match count. A NaN
		// matches nothing, itself included.
		copy(c, cnt)
	case nans > 0:
		// A NaN distance makes every sum NaN.
		for i := range out {
			out[i] = math.NaN()
		}
		return out, st
	case math.IsInf(theta, 1):
		// A flat kernel of height 0, except that a distance whose square
		// overflows makes ∞·0.
		for i, w := range xs {
			if d := max(w-xs[0], xs[len(xs)-1]-w); !(d*d <= math.MaxFloat64) {
				c[i] = math.NaN()
			}
		}
	default:
		// An infinite value is NaN against itself and 0 against the rest.
		lo, hi := 0, len(xs)
		for lo < hi && math.IsInf(xs[lo], -1) {
			c[lo] = math.NaN()
			lo++
		}
		for hi > lo && math.IsInf(xs[hi-1], 1) {
			c[hi-1] = math.NaN()
			hi--
		}
		st.Boxes, st.KernelEvals = gaussTransform(c[lo:hi], xs[lo:hi], cnt[lo:hi], theta, len(values))
		norm := 1 / (theta * math.Sqrt(2*math.Pi))
		for i := lo; i < hi; i++ {
			c[i] *= norm
		}
	}
	for i, v := range values {
		if !math.IsNaN(v) {
			out[i] = c[sort.SearchFloat64s(xs, v)]
		}
	}
	return out, st
}

// transformPlan returns the far-field cut (in bandwidths) and the number
// of Taylor terms that hold a population of n to CommonnessRelErr/2. Each
// target's commonness is at least its own term, 1 before the norm, so:
//
//   - far field: a target adds no box whose nearest point lies more than
//     cut away. Each skipped term is below e^{-cut²/2}, so
//     n·e^{-cut²/2} ≤ CommonnessRelErr/4 bounds the loss;
//   - truncation: with |u| ≤ ρ = boxRho, the p-term series of e^{tu}
//     leaves a point's term off by at most e^{-t²/2+|t|ρ}·(|t|ρ)^p/p!,
//     whose maximum over t, at t = (ρ+√(ρ²+4p))/2, times n must be
//     ≤ CommonnessRelErr/4. p is the smallest such count.
//
// Both use portable arithmetic, so they are the same numbers on every host.
func transformPlan(n int) (cut float64, terms int) {
	cut = math.Sqrt(2 * math.Ln2 * portable.Log2(4*float64(n)/CommonnessRelErr))
	budget := portable.Log2(CommonnessRelErr / 4 / float64(n))
	log2Fact := 0.0 // log₂ p!
	for terms = 1; ; terms++ {
		p := float64(terms)
		log2Fact += portable.Log2(p)
		// float64() rounds each product: no fused multiply-add on any GOARCH.
		t := (boxRho + math.Sqrt(boxRho*boxRho+float64(4*p))) / 2
		exponent := float64(t*boxRho) - float64(float64(t*t)/2)
		if exponent/math.Ln2+float64(p*portable.Log2(t*boxRho))-log2Fact <= budget {
			return cut, terms
		}
	}
}

// gaussTransform sets s[i] = Σ_j cnt[j]·exp(−((xs[i]−xs[j])/θ)²/2) for the
// sorted, distinct, finite xs, to within CommonnessRelErr/2 for a
// population of n, and returns the number of boxes and of exponentials.
//
// The sorted values are cut greedily into boxes of half-width ρθ. With
// u = (v−c)/θ and t = (w−c)/θ for a box centre c, the box's sum at w is
// e^{-t²/2}·Σ_k A_k t^k with moments A_k = Σ cnt·e^{-u²/2}·u^k/k!, the
// Taylor series of e^{tu}. Each target adds the boxes within reach of it,
// a window that only moves right as the targets grow.
func gaussTransform(s, xs, cnt []float64, theta float64, n int) (boxes, evals int) {
	cut, p := transformPlan(n)
	reach := cut + boxRho
	invFact := make([]float64, p) // 1/k!
	invFact[0] = 1
	for k := 1; k < p; k++ {
		invFact[k] = invFact[k-1] / float64(k)
	}
	var centres, mom []float64 // mom holds p moments per box
	for i := 0; i < len(xs); {
		c := xs[i] + float64(boxRho*theta)
		if (xs[i]-c)/theta < -boxRho {
			// Rounding moved the centre more than ρθ off the box's first
			// value: centre the box there instead.
			c = xs[i]
		}
		centres = append(centres, c)
		mom = append(mom, make([]float64, p)...)
		a := mom[len(mom)-p:]
		for ; i < len(xs); i++ {
			u := (xs[i] - c) / theta
			if u > boxRho {
				break
			}
			pow := cnt[i] * portable.Exp(-u*u/2) // cnt·e^{-u²/2}·u^k
			evals++
			for k := range a {
				a[k] += float64(pow * invFact[k])
				pow *= u
			}
		}
	}

	lo, hi := 0, 0
	for i, w := range xs {
		for lo < len(centres) && (w-centres[lo])/theta > reach {
			lo++
		}
		for hi < len(centres) && (centres[hi]-w)/theta <= reach {
			hi++
		}
		var sum float64
		for b := lo; b < hi; b++ {
			t := (w - centres[b]) / theta
			a := mom[b*p : b*p+p]
			h := a[p-1]
			for k := p - 2; k >= 0; k-- {
				// float64() rounds the product: no fused multiply-add on any GOARCH.
				h = float64(h*t) + a[k]
			}
			sum += float64(portable.Exp(-t*t/2) * h)
		}
		evals += hi - lo
		s[i] = sum
	}
	return len(centres), evals
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
// uncertainty-aware choice in Section V-C).
func VertexUniqueness(g *uncertain.Graph) []float64 {
	u, _ := VertexUniquenessDistinct(g)
	return u
}

// VertexUniquenessDistinct is VertexUniqueness that also reports the
// kernel's work: the number of distinct expected degrees, the transform's
// boxes and the exponentials it made.
func VertexUniquenessDistinct(g *uncertain.Graph) ([]float64, KernelStats) {
	theta := g.DegreeStdDev()
	if theta <= 0 {
		theta = 1
	}
	c, st := commonness(g.ExpectedDegrees(), theta)
	return invert(c), st
}
