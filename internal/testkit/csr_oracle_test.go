package testkit

import (
	"testing"
)

// TestCSROracle runs the CSR bit-identity oracle over the sampling corpus
// (which includes the exact-enumeration corpus plus the low-probability
// class graph): the packed view must reproduce the slice-backed engine's
// estimates bit for bit on every graph and mode.
func TestCSROracle(t *testing.T) {
	const samples = 200
	const seed = 0xC5A
	for _, cg := range SamplingCorpus() {
		cg := cg
		t.Run(cg.Name, func(t *testing.T) {
			t.Parallel()
			for _, err := range CSROracle(cg, samples, seed) {
				t.Error(err)
			}
		})
	}
}
