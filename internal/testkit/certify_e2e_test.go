package testkit_test

import (
	"math"
	"testing"

	"chameleon"
	"chameleon/internal/certify"
	"chameleon/internal/privacy"
	"chameleon/internal/testkit"
	"chameleon/internal/uncertain"
)

// anonGraph builds the small heavy-tailed graph the facade tests use for
// fast anonymization.
func anonGraph() *uncertain.Graph {
	g := uncertain.New(120)
	for i := 1; i < 120; i++ {
		g.MustAddEdge(uncertain.NodeID(i), uncertain.NodeID(i/2), 0.6)
		if i > 1 && !g.HasEdge(uncertain.NodeID(i), uncertain.NodeID(i-1)) {
			g.MustAddEdge(uncertain.NodeID(i), uncertain.NodeID(i-1), 0.3)
		}
	}
	return g
}

// TestCertifyPublishedGraphs is the certificate checker's main contract:
// every method's published output must be independently certifiable, and
// the independent verdict must agree with the production checker's count
// (up to the documented Boundary band).
func TestCertifyPublishedGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("anonymization e2e in -short mode")
	}
	g := anonGraph()
	const (
		k   = 5
		eps = 0.05
	)
	for _, m := range []chameleon.Method{
		chameleon.MethodRSME, chameleon.MethodRS, chameleon.MethodME, chameleon.MethodRepAn,
	} {
		m := m
		t.Run(string(m), func(t *testing.T) {
			t.Parallel()
			res, err := chameleon.Anonymize(g, chameleon.Options{
				K: k, Epsilon: eps, Method: m, Samples: 100, Seed: 9,
			})
			if err != nil {
				t.Fatalf("Anonymize(%s): %v", m, err)
			}
			cert, err := certify.Check(g, res.Graph, k, eps)
			if err != nil {
				t.Fatal(err)
			}
			if !cert.Valid {
				t.Fatalf("%s output fails independent certification: eps~ = %v > %v (non-obf %d/%d)",
					m, cert.EpsilonTilde, eps, cert.NonObfuscated, cert.Vertices)
			}
			if cert.MinEntropy < math.Log2(k)-certify.EntropyTolerance && cert.NonObfuscated == 0 {
				t.Errorf("MinEntropy %v below threshold but no vertex counted non-obfuscated", cert.MinEntropy)
			}

			// Agreement with the production checker: the certificate may be
			// lenient only inside its documented Boundary band.
			rep, err := privacy.CheckObfuscation(res.Graph, privacy.DegreeProperty(g), k)
			if err != nil {
				t.Fatal(err)
			}
			if rep.NonObfuscated < cert.NonObfuscated ||
				rep.NonObfuscated > cert.NonObfuscated+cert.Boundary {
				t.Errorf("production counts %d non-obfuscated, certificate %d (+%d boundary): implementations disagree",
					rep.NonObfuscated, cert.NonObfuscated, cert.Boundary)
			}

			// Relabel invariance of the certificate itself: renaming the
			// vertices of both graphs must not change the verdict.
			n := g.NumNodes()
			perm := make([]uncertain.NodeID, n)
			for v := range perm {
				perm[v] = uncertain.NodeID(n - 1 - v)
			}
			rcert, err := certify.Check(
				testkit.Relabel(g, perm), testkit.Relabel(res.Graph, perm), k, eps)
			if err != nil {
				t.Fatal(err)
			}
			if rcert.NonObfuscated != cert.NonObfuscated || rcert.Valid != cert.Valid {
				t.Errorf("relabeling changed the certificate: %+v vs %+v", rcert, cert)
			}
			if math.Abs(rcert.MinEntropy-cert.MinEntropy) > 1e-9 {
				t.Errorf("relabeling moved MinEntropy: %v vs %v", rcert.MinEntropy, cert.MinEntropy)
			}
		})
	}
}
