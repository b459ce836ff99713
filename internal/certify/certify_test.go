package certify_test

import (
	"fmt"
	"math"
	"testing"

	"chameleon/internal/certify"
	"chameleon/internal/privacy"
	"chameleon/internal/testkit"
	"chameleon/internal/uncertain"
)

// TestCertificateRejectsUnprotectedGraph feeds the checker a published
// graph that plainly violates the guarantee: a certain star whose hub has
// a unique degree, so its posterior entropy is 0.
func TestCertificateRejectsUnprotectedGraph(t *testing.T) {
	const n = 10
	star := uncertain.New(n)
	for v := 1; v < n; v++ {
		star.MustAddEdge(0, uncertain.NodeID(v), 1)
	}
	cert, err := certify.Check(star, star, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Valid {
		t.Fatal("a certain star must not certify at eps=0: the hub's degree is unique")
	}
	if cert.NonObfuscated < 1 {
		t.Fatalf("NonObfuscated = %d, want at least the hub", cert.NonObfuscated)
	}
	if cert.MinEntropy != 0 {
		t.Errorf("MinEntropy = %v, want 0 (hub posterior is a point mass)", cert.MinEntropy)
	}
}

// TestCertificateInputValidation covers the error paths.
func TestCertificateInputValidation(t *testing.T) {
	g := uncertain.New(5)
	g.MustAddEdge(0, 1, 0.5)
	h := uncertain.New(6)
	cases := []struct {
		name string
		run  func() error
	}{
		{"size mismatch", func() error { _, err := certify.Check(g, h, 2, 0.1); return err }},
		{"k too small", func() error { _, err := certify.Check(g, g, 0, 0.1); return err }},
		{"k too large", func() error { _, err := certify.Check(g, g, 6, 0.1); return err }},
		{"eps negative", func() error { _, err := certify.Check(g, g, 2, -0.1); return err }},
		{"eps above one", func() error { _, err := certify.Check(g, g, 2, 1.5); return err }},
		{"empty graph", func() error {
			e := uncertain.New(0)
			_, err := certify.Check(e, e, 1, 0.1)
			return err
		}},
	}
	for _, c := range cases {
		if err := c.run(); err == nil {
			t.Errorf("%s: expected an error", c.name)
		}
	}
}

// TestCertificateMatchesProductionOnCorpus compares the two checkers on
// every corpus graph published "as itself" across several k — a broad,
// cheap agreement sweep with no anonymization in the loop.
func TestCertificateMatchesProductionOnCorpus(t *testing.T) {
	for _, cg := range testkit.Corpus() {
		for _, k := range []int{1, 2, 3} {
			if k > cg.G.NumNodes() {
				continue
			}
			cert, err := certify.Check(cg.G, cg.G, k, 1)
			if err != nil {
				t.Fatalf("%s k=%d: %v", cg.Name, k, err)
			}
			rep, err := privacy.CheckObfuscation(cg.G, privacy.DegreeProperty(cg.G), k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", cg.Name, k, err)
			}
			if rep.NonObfuscated < cert.NonObfuscated ||
				rep.NonObfuscated > cert.NonObfuscated+cert.Boundary {
				t.Errorf("%s k=%d: production %d vs certificate %d (+%d boundary)",
					cg.Name, k, rep.NonObfuscated, cert.NonObfuscated, cert.Boundary)
			}
			if got := fmt.Sprintf("%.6f", cert.EpsilonTilde); cert.NonObfuscated == 0 && got != "0.000000" {
				t.Errorf("%s k=%d: eps~ %s with zero non-obfuscated vertices", cg.Name, k, got)
			}
		}
	}
}

// TestPoissonBinomialMatchesConvolution cross-checks internal/privacy's
// sequential DP against this package's independent divide-and-conquer
// convolution. Deterministic.
func TestPoissonBinomialMatchesConvolution(t *testing.T) {
	cases := [][]float64{
		{},
		{0.3},
		{0, 1, 0.5},
		{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		{1e-6, 0.999999, 0.5, 0.25, 0.75},
	}
	// Add every corpus vertex's incident-probability vector.
	for _, cg := range testkit.Corpus() {
		var buf []float64
		for v := 0; v < cg.G.NumNodes(); v++ {
			buf = cg.G.IncidentProbs(uncertain.NodeID(v), buf[:0])
			cases = append(cases, append([]float64(nil), buf...))
		}
	}
	for ci, probs := range cases {
		got := privacy.DegreeDistribution(probs)
		want := certify.PoissonBinomial(probs)
		if len(got) != len(want) {
			t.Fatalf("case %d: length %d vs %d", ci, len(got), len(want))
		}
		var gSum, wSum float64
		for j := range got {
			if err := testkit.CheckClose(fmt.Sprintf("case %d P(deg=%d)", ci, j),
				got[j], want[j], 1e-12); err != nil {
				t.Error(err)
			}
			gSum += got[j]
			wSum += want[j]
		}
		if math.Abs(gSum-1) > 1e-12 || math.Abs(wSum-1) > 1e-12 {
			t.Errorf("case %d: distributions sum to %v (DP) and %v (D&C), want 1", ci, gSum, wSum)
		}
	}
}
