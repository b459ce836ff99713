package certify

// PoissonBinomial computes the exact distribution of a sum of independent
// Bernoulli(p_i) variables by divide-and-conquer convolution:
// out[j] = Pr[exactly j successes].
//
// This is deliberately a different algorithm from internal/privacy's
// sequential dynamic program: the certificate checker needs an
// independently coded reference, so a bug in the production recurrence
// cannot cancel against itself.
func PoissonBinomial(probs []float64) []float64 {
	switch len(probs) {
	case 0:
		return []float64{1}
	case 1:
		return []float64{1 - probs[0], probs[0]}
	}
	mid := len(probs) / 2
	a := PoissonBinomial(probs[:mid])
	b := PoissonBinomial(probs[mid:])
	out := make([]float64, len(a)+len(b)-1)
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			out[i+j] += float64(ai * bj) // unfused, as in Check
		}
	}
	return out
}
