package core

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"chameleon/internal/gen"
	"chameleon/internal/privacy"
	"chameleon/internal/uncertain"
)

// testGraph builds a 250-node heavy-tailed uncertain graph, big enough for
// the k values used in the tests but fast to anonymize.
func testGraph(t testing.TB, seed uint64) *uncertain.Graph {
	t.Helper()
	pa := gen.DiscreteProbs(
		[]float64{0.13, 0.28, 0.46, 0.64, 0.80},
		[]float64{0.15, 0.23, 0.27, 0.22, 0.13},
	)
	g, err := gen.BarabasiAlbert(250, 3, pa, rand.New(rand.NewPCG(seed, 1)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestVariantString(t *testing.T) {
	cases := map[Variant]string{RSME: "RSME", RS: "RS", ME: "ME", Boldi: "Boldi", Variant(9): "Variant(9)"}
	for v, want := range cases {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), want)
		}
	}
}

func TestParseVariantRoundTrip(t *testing.T) {
	for v := RSME; v <= RepAn; v++ {
		got, err := ParseVariant(v.String())
		if err != nil || got != v {
			t.Errorf("ParseVariant(%q) = %v, %v; want %v", v.String(), got, err, v)
		}
	}
	if v, err := ParseVariant(""); err != nil || v != RSME {
		t.Errorf(`ParseVariant("") = %v, %v; want RSME`, v, err)
	}
	for _, bad := range []string{"bogus", "rsme", "RepAn", "Variant(9)"} {
		if _, err := ParseVariant(bad); err == nil || !strings.Contains(err.Error(), "method") {
			t.Errorf("ParseVariant(%q) error = %v, want an unknown-method error", bad, err)
		}
	}
}

func TestVariantFlags(t *testing.T) {
	if !RSME.reliabilitySensitive() || !RS.reliabilitySensitive() {
		t.Fatal("RSME and RS must be reliability sensitive")
	}
	if ME.reliabilitySensitive() || Boldi.reliabilitySensitive() {
		t.Fatal("ME and Boldi must not be reliability sensitive")
	}
	if !RSME.maxEntropy() || !ME.maxEntropy() || !Boldi.maxEntropy() {
		t.Fatal("RSME, ME and Boldi use the guided perturbation")
	}
	if RS.maxEntropy() {
		t.Fatal("RS uses unguided perturbation")
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.SizeMultiplier != 2.0 || p.Attempts != 5 {
		t.Fatalf("defaults wrong: %+v", p)
	}
	if p.SigmaTolerance != 1e-3 || p.MaxDoublings != 8 {
		t.Fatalf("search defaults wrong: %+v", p)
	}
	// withDefaults must be idempotent.
	p2 := p.withDefaults()
	if p2.SizeMultiplier != p.SizeMultiplier || p2.Attempts != p.Attempts ||
		p2.SigmaTolerance != p.SigmaTolerance || p2.MaxDoublings != p.MaxDoublings ||
		p2.WhiteNoise != p.WhiteNoise {
		t.Fatal("withDefaults should be idempotent")
	}
	// White noise resolution: 0 means default, negative disables.
	if got := (Params{}).whiteNoise(); got != 0.01 {
		t.Fatalf("default white noise = %v, want 0.01", got)
	}
	if got := (Params{WhiteNoise: -1}).whiteNoise(); got != 0 {
		t.Fatalf("disabled white noise = %v, want 0", got)
	}
	if got := (Params{WhiteNoise: 0.2}).whiteNoise(); got != 0.2 {
		t.Fatalf("explicit white noise = %v, want 0.2", got)
	}
}

func TestValidate(t *testing.T) {
	g := testGraph(t, 1)
	cases := []struct {
		name string
		g    *uncertain.Graph
		p    Params
	}{
		{"nil graph", nil, Params{K: 2}},
		{"empty graph", uncertain.New(0), Params{K: 2}},
		{"edgeless graph", uncertain.New(5), Params{K: 2}},
		{"k too small", g, Params{K: 1}},
		{"k exceeds nodes", g, Params{K: g.NumNodes() + 1}},
		{"negative epsilon", g, Params{K: 5, Epsilon: -0.1}},
		{"epsilon one", g, Params{K: 5, Epsilon: 1}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.withDefaults().validate(tt.g); err == nil {
				t.Fatal("want validation error")
			}
		})
	}
}

func TestAnonymizeAchievesObfuscation(t *testing.T) {
	g := testGraph(t, 2)
	const k, eps = 8, 0.04
	for _, variant := range []Variant{RSME, RS, ME, Boldi} {
		variant := variant
		t.Run(variant.String(), func(t *testing.T) {
			res, err := Anonymize(g, Params{
				K: k, Epsilon: eps, Samples: 150, Seed: 42, Variant: variant,
			})
			if err != nil {
				t.Fatalf("Anonymize: %v", err)
			}
			if res.EpsilonTilde > eps {
				t.Fatalf("eps~ = %v exceeds eps = %v", res.EpsilonTilde, eps)
			}
			// Independent re-check of the published graph.
			rep, err := privacy.CheckObfuscation(res.Graph, privacy.DegreeProperty(g), k)
			if err != nil {
				t.Fatal(err)
			}
			if rep.EpsilonTilde > eps {
				t.Fatalf("independent check: eps~ = %v exceeds %v", rep.EpsilonTilde, eps)
			}
			if res.Graph.NumNodes() != g.NumNodes() {
				t.Fatal("anonymization must preserve the vertex set")
			}
			if res.GenObfCalls == 0 || res.Attempts == 0 {
				t.Fatal("result should report search effort")
			}
			if res.Variant != variant {
				t.Fatalf("result variant %v, want %v", res.Variant, variant)
			}
		})
	}
}

func TestAnonymizeDeterministicPerSeed(t *testing.T) {
	g := testGraph(t, 3)
	p := Params{K: 6, Epsilon: 0.04, Samples: 100, Seed: 7, Variant: RSME}
	r1, err := Anonymize(g, p)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Anonymize(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Graph.Equal(r2.Graph) {
		t.Fatal("same seed must produce the same published graph")
	}
	if r1.Sigma != r2.Sigma || r1.EpsilonTilde != r2.EpsilonTilde {
		t.Fatal("same seed must produce the same search outcome")
	}
}

func TestAnonymizeDoesNotMutateInput(t *testing.T) {
	g := testGraph(t, 4)
	before := g.Clone()
	if _, err := Anonymize(g, Params{K: 5, Epsilon: 0.05, Samples: 80, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if !g.Equal(before) {
		t.Fatal("Anonymize must not mutate its input")
	}
}

// TestConcurrentAnonymizeSharedInput: two runs over one shared input
// graph, at once, publish identical bytes. Each run's attempt slots fill
// their own flat trial lists, so the input is only read; under -race this
// also checks that no reader of the shared graph writes to it.
func TestConcurrentAnonymizeSharedInput(t *testing.T) {
	g := testGraph(t, 6)
	p := Params{K: 25, Epsilon: 0.04, Samples: 60, Seed: 3, Workers: 2}
	var out [2][]byte
	var errs [2]error
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := Anonymize(g, p)
			if err != nil {
				errs[i] = err
				return
			}
			var buf bytes.Buffer
			errs[i] = uncertain.WriteBinaryV2(&buf, res.Graph)
			out[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Fatal("concurrent runs over one shared input published different bytes")
	}
}

func TestAnonymizeInfeasible(t *testing.T) {
	// A certain star cannot k-obfuscate its center for large k with
	// eps = 0: every vertex must pass, including the unique hub.
	g := uncertain.New(40)
	for i := 1; i < 40; i++ {
		g.MustAddEdge(0, uncertain.NodeID(i), 1)
	}
	_, err := Anonymize(g, Params{
		K: 39, Epsilon: 0, Samples: 50, Seed: 1, MaxDoublings: 3, Attempts: 2,
	})
	if !errors.Is(err, ErrNoObfuscation) {
		t.Fatalf("want ErrNoObfuscation, got %v", err)
	}
}

func TestAnonymizeValidatesParams(t *testing.T) {
	g := testGraph(t, 5)
	if _, err := Anonymize(g, Params{K: 0}); err == nil {
		t.Fatal("invalid params must be rejected")
	}
}

func TestTopK(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5, 0.7, 0.2}
	got := topK(scores, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("topK = %v, want [1 3]", got)
	}
	if len(topK(scores, 10)) != 5 {
		t.Fatal("k beyond length should clamp")
	}
	if len(topK(scores, 0)) != 0 {
		t.Fatal("k=0 should give empty")
	}
}

func TestResultEpsilonWithinTolerance(t *testing.T) {
	g := testGraph(t, 6)
	res, err := Anonymize(g, Params{K: 5, Epsilon: 0.05, Samples: 80, Seed: 3, Variant: ME})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sigma <= 0 {
		t.Fatalf("sigma = %v, want positive", res.Sigma)
	}
	if strings.TrimSpace(res.Variant.String()) == "" {
		t.Fatal("variant should render")
	}
}

func TestCustomAdversaryProperty(t *testing.T) {
	g := testGraph(t, 20)
	// A coarse adversary only knows degree buckets of width 4: weaker
	// knowledge, so obfuscation should need no more noise than against
	// the exact-degree adversary.
	coarse := privacy.DegreeProperty(g)
	for i := range coarse {
		coarse[i] /= 4
	}
	resCoarse, err := Anonymize(g, Params{
		K: 8, Epsilon: 0.04, Samples: 100, Seed: 3, Property: coarse,
	})
	if err != nil {
		t.Fatalf("coarse adversary: %v", err)
	}
	resExact, err := Anonymize(g, Params{
		K: 8, Epsilon: 0.04, Samples: 100, Seed: 3,
	})
	if err != nil {
		t.Fatalf("exact adversary: %v", err)
	}
	if resCoarse.Sigma > resExact.Sigma+1e-9 {
		t.Fatalf("weaker adversary should not need more noise: %v vs %v",
			resCoarse.Sigma, resExact.Sigma)
	}
}

func TestPropertyLengthValidated(t *testing.T) {
	g := testGraph(t, 21)
	if _, err := Anonymize(g, Params{K: 5, Epsilon: 0.05, Property: []int{1, 2}}); err == nil {
		t.Fatal("short property vector should be rejected")
	}
}
