package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand/v2"
	"path/filepath"
	"strings"
	"testing"

	"chameleon/internal/gen"
	"chameleon/internal/obs"
	"chameleon/internal/privacy"
	"chameleon/internal/repan"
	"chameleon/internal/uncertain"
)

// repanTestGraph is a 200-node BA graph with uniform probabilities in
// [0.1, 0.9]: the representative keeps only part of its edges.
func repanTestGraph(t testing.TB, seed uint64) *uncertain.Graph {
	t.Helper()
	g, err := gen.BarabasiAlbert(200, 3, gen.UniformProbs(0.1, 0.9), rand.New(rand.NewPCG(seed, 1)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRepAnEndToEnd(t *testing.T) {
	g := repanTestGraph(t, 5)
	const k, eps = 6, 0.05
	res, err := Anonymize(g, Params{K: k, Epsilon: eps, Samples: 100, Seed: 42, Variant: RepAn})
	if err != nil {
		t.Fatal(err)
	}
	if res.EpsilonTilde > eps {
		t.Fatalf("eps~ = %v > eps = %v", res.EpsilonTilde, eps)
	}
	if res.Variant != Boldi {
		t.Fatalf("Rep-An must use the Boldi obfuscator, got %v", res.Variant)
	}
	// The published graph k-obfuscates the representative's own degrees
	// (the pipeline is oblivious to the original uncertainty by design).
	rep := repan.Representative(g)
	check, err := privacy.CheckObfuscation(res.Graph, privacy.DegreeProperty(rep), k)
	if err != nil {
		t.Fatal(err)
	}
	if check.EpsilonTilde > eps {
		t.Fatalf("published graph fails the representative check: %v", check.EpsilonTilde)
	}
}

func TestRepAnScalesCandidateBudget(t *testing.T) {
	// A low-probability graph loses most edges at extraction; the
	// rescaled candidate budget must still let the pipeline succeed.
	g, err := gen.BarabasiAlbert(200, 3, gen.SmallProbs(0.3), rand.New(rand.NewPCG(6, 2)))
	if err != nil {
		t.Fatal(err)
	}
	rep := repan.Representative(g)
	if rep.NumEdges() >= g.NumEdges() {
		t.Skip("extraction did not shrink the edge set; scaling not exercised")
	}
	res, err := Anonymize(g, Params{K: 4, Epsilon: 0.05, Samples: 100, Seed: 7, Variant: RepAn})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumNodes() != g.NumNodes() {
		t.Fatal("vertex set changed")
	}
}

// repAnPinnedSHA256 is the SHA-256 of the v2 bytes a seeded Rep-An run on
// testGraph(5) publishes. It was captured when Rep-An still lived in
// package repan, and re-captured once, with CheckpointVersion 3, when
// θ-uniqueness became a fast Gauss transform on host-independent exp and
// log2; it must now hold on every GOARCH and CPU.
const repAnPinnedSHA256 = "7f230c37793d8229ece4745b1fb50d05ce09c5ac8efe9996b5a7949a343c1556"

func repAnPinnedParams(ckPath string) Params {
	return Params{K: 40, Epsilon: 0.04, Samples: 60, Seed: 11, Variant: RepAn, CheckpointPath: ckPath}
}

// TestRepAnPinnedOutput: a fixed-seed Rep-An run publishes the pinned
// bytes.
func TestRepAnPinnedOutput(t *testing.T) {
	res, err := Anonymize(testGraph(t, 5), repAnPinnedParams(""))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(encodeGraph(t, res.Graph))
	if got := hex.EncodeToString(sum[:]); got != repAnPinnedSHA256 {
		t.Fatalf("Rep-An output sha256 = %s, want %s", got, repAnPinnedSHA256)
	}
	if res.Variant != Boldi {
		t.Fatalf("Result.Variant = %v, want Boldi", res.Variant)
	}
}

// TestVariantPinnedOutput: fixed-seed RSME, RS, ME and Rep-An runs on
// testGraph(5) publish the exact bytes, and walk the exact σ-search, on
// every worker count: one (the inline serial path), fewer than the five
// attempts of a call, more, and GOMAXPROCS. The hashes were re-captured
// once, with CheckpointVersion 3, when θ-uniqueness became a fast Gauss
// transform on host-independent exp and log2 (the σ-search walk did not
// change); they must hold on every GOARCH and CPU, and check.sh runs this
// test under GODEBUG=cpu.fma=off too. The attempt counts were re-captured
// once, with CheckpointVersion 4, when GenObf calls became probes: the
// search now reads fewer trials, and publishes the same bytes.
func TestVariantPinnedOutput(t *testing.T) {
	for _, pin := range []struct {
		variant     Variant
		sha256      string
		epsilon     float64
		sigma       float64
		calls, atts int
	}{
		{RSME, "f2a1efe7185c75202345fc86de359ce99809e2abc704f3a12682386bf2199e32", 0.04, 0.14875000000000002, 12, 45},
		{RS, "654a5616a333f06d4c7e1b8b2b0f42e030a3fab6feeb9c079cda375631bbc8ad", 0.04, 0.9220000000000002, 15, 75},
		{ME, "139c74da072773aa3786af9f696832dbf00ce911ba05aee7d6180203aea2df20", 0.04, 0.184, 12, 58},
		{RepAn, "8b38a83fd560959090926d42a3e36d0450e899a557adec0f9192ea165edbc756", 0.04, 0.50875, 15, 51},
	} {
		t.Run(pin.variant.String(), func(t *testing.T) {
			for _, workers := range []int{0, 1, 2, 3, 8} {
				res, err := Anonymize(testGraph(t, 5), Params{K: 25, Epsilon: 0.04, Samples: 60, Seed: 11, Variant: pin.variant, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(encodeGraph(t, res.Graph))
				if got := hex.EncodeToString(sum[:]); got != pin.sha256 {
					t.Errorf("%d workers: output sha256 = %s, want %s", workers, got, pin.sha256)
				}
				if res.EpsilonTilde != pin.epsilon || res.Sigma != pin.sigma ||
					res.GenObfCalls != pin.calls || res.Attempts != pin.atts {
					t.Errorf("%d workers: (ε~=%v, σ=%v, %d calls, %d attempts), want (%v, %v, %d, %d)",
						workers, res.EpsilonTilde, res.Sigma, res.GenObfCalls, res.Attempts,
						pin.epsilon, pin.sigma, pin.calls, pin.atts)
				}
			}
		})
	}
}

// TestResumeRepAnCheckpoint resumes testdata/repan-checkpoint.json, a
// Rep-An search interrupted mid-bisection (first written by the build in
// which Rep-An still lived in package repan, regenerated for
// CheckpointVersion 3), and requires the result to be bit-identical to
// the uninterrupted run.
func TestResumeRepAnCheckpoint(t *testing.T) {
	g := testGraph(t, 5)
	full, err := Anonymize(g, repAnPinnedParams(""))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint("testdata/repan-checkpoint.json")
	if err != nil {
		t.Fatal(err)
	}
	if ck.Variant != "Boldi" || ck.Steps[len(ck.Steps)-1].Phase != phaseBisection || ck.GraphHash != GraphHash(repan.Representative(g)) {
		t.Fatalf("fixture echo = (%s, %s, %#x), want a Boldi bisection over the representative",
			ck.Variant, ck.Steps[len(ck.Steps)-1].Phase, ck.GraphHash)
	}
	p := repAnPinnedParams(filepath.Join(t.TempDir(), "search.ckpt"))
	p.Resume = ck
	resumed, err := AnonymizeContext(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture's attempt total counts every trial of its calls, as the
	// search did before calls became probes.
	calls := tracedCalls(full.Trace)
	attempts := ck.AttemptCount + attemptsAfter(calls, len(ck.Steps))
	if resumed.Sigma != full.Sigma || resumed.EpsilonTilde != full.EpsilonTilde ||
		resumed.GenObfCalls != full.GenObfCalls || resumed.Attempts != attempts {
		t.Errorf("resumed (σ=%v, ε~=%v, %d calls, %d attempts) != full (σ=%v, ε~=%v, %d, %d)",
			resumed.Sigma, resumed.EpsilonTilde, resumed.GenObfCalls, resumed.Attempts,
			full.Sigma, full.EpsilonTilde, full.GenObfCalls, attempts)
	}
	if string(encodeGraph(t, resumed.Graph)) != string(encodeGraph(t, full.Graph)) {
		t.Error("resumed graph bytes differ from the uninterrupted run")
	}

	// The same interruption point today writes the same echo.
	ckPath := filepath.Join(t.TempDir(), "search.ckpt")
	p = repAnPinnedParams(ckPath)
	p.Workers = 1
	if _, err := AnonymizeContext(newStepCtx(serialLimit(calls, len(ck.Steps))), g, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run error = %v, want context.Canceled", err)
	}
	fresh, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.GraphHash != ck.GraphHash || fresh.SizeMultiplier != ck.SizeMultiplier ||
		fresh.Variant != ck.Variant || !sameTrajectory(fresh.Steps, ck.Steps) {
		t.Errorf("fresh checkpoint echo differs from the fixture:\n fresh %+v\n fixture %+v", fresh, ck)
	}
}

// spanShape renders the span tree down to the precompute level: the
// root's children in order, with precompute's own children in brackets.
func spanShape(root *obs.Span) string {
	var parts []string
	for _, c := range root.Children {
		name := c.Name
		if len(c.Children) > 0 && c.Name == "precompute" {
			var sub []string
			for _, cc := range c.Children {
				sub = append(sub, cc.Name)
			}
			name += "[" + strings.Join(sub, ",") + "]"
		}
		parts = append(parts, name)
	}
	return root.Name + ": " + strings.Join(parts, " ")
}

// TestTraceShapePerVariant pins each method's phase tree. The precompute's
// children are its layers: Rep-An's representative extraction, then
// uniqueness, then edge relevance for the reliability-sensitive methods.
// With the attempts on two workers their spans end out of order, so each
// carries its seq. Call c's trials are seqs (c-1)t+1..ct: those the search
// read — all t for a full or failed call, up to the chosen one for a
// successful probe — appear each once, any trial past a probe's chosen one
// is marked discarded, the calls' read trials total Result.Attempts, and
// a full re-run of a probe best repeats its call's seqs last. Every
// attempt times its select, perturb and check steps in that order, and
// every genobf span records its worker count and the trials it ran.
func TestTraceShapePerVariant(t *testing.T) {
	g := testGraph(t, 3)
	want := map[Variant]string{
		RSME:  "anonymize: precompute[uniqueness,edge-relevance] exponential-search bisection",
		RS:    "anonymize: precompute[uniqueness,edge-relevance] exponential-search bisection",
		ME:    "anonymize: precompute[uniqueness] exponential-search bisection",
		RepAn: "anonymize: precompute[representative,uniqueness] exponential-search bisection",
	}
	for v, shape := range want {
		res, err := Anonymize(g, Params{K: 6, Epsilon: 0.05, Samples: 40, Seed: 2, Variant: v, Workers: 2})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		tt := uint64(Params{}.withDefaults().Attempts)
		read := 0
		for i, sp := range res.Trace.FindAll("genobf") {
			c := traceCall(sp)
			if c.rerun != (i == res.GenObfCalls) || !c.rerun && c.call != i+1 || c.rerun && c.probe {
				t.Fatalf("%v: genobf span %d is call %d (rerun %v, probe %v) of %d", v, i, c.call, c.rerun, c.probe, res.GenObfCalls)
			}
			base := uint64(c.call-1) * tt
			last := base + tt
			if c.probe && c.ok {
				last = c.seq
			}
			if n, _ := attr[int](sp, "trials"); n != c.trials {
				t.Errorf("%v: call %d ran %d attempt spans, its trials attr says %d", v, c.call, c.trials, n)
			}
			read += c.read
			seen := make(map[uint64]bool)
			for _, a := range sp.FindAll("attempt") {
				seq, ok := attr[uint64](a, "seq")
				discarded, _ := attr[bool](a, "discarded")
				if !ok || seq <= base || seq > base+tt || seen[seq] || discarded != (seq > last) {
					t.Fatalf("%v: call %d attempt seq %v discarded %v, want each of %d..%d once, discarded past %d", v, c.call, seq, discarded, base+1, base+tt, last)
				}
				seen[seq] = true
			}
			if uint64(c.read) != last-base {
				t.Fatalf("%v: call %d read %d trials, want seqs %d..%d", v, c.call, c.read, base+1, last)
			}
		}
		if read != res.Attempts {
			t.Errorf("%v: the calls read %d trials, Result.Attempts = %d", v, read, res.Attempts)
		}
		for _, a := range res.Trace.FindAll("attempt") {
			seq, _ := attr[uint64](a, "seq")
			var steps []string
			for _, c := range a.Children {
				steps = append(steps, c.Name)
				if !c.Ended() || c.Duration() > a.Duration() {
					t.Fatalf("%v: attempt %d step %s ran %v of the attempt's %v", v, seq, c.Name, c.Duration(), a.Duration())
				}
			}
			if got := strings.Join(steps, " "); got != "select perturb check" {
				t.Fatalf("%v: attempt %d steps %q, want \"select perturb check\"", v, seq, got)
			}
		}
		for _, c := range res.Trace.FindAll("genobf") {
			if w, _ := c.Attr("workers"); w != 2 {
				t.Errorf("%v: genobf span workers = %v, want 2", v, w)
			}
		}
		if got := spanShape(res.Trace); got != shape {
			t.Errorf("%v trace = %q, want %q", v, got, shape)
		}
		if got, _ := res.Trace.Attr("variant"); got != res.Variant.String() {
			t.Errorf("%v: root variant attr %v, want %v", v, got, res.Variant)
		}
		u := res.Trace.Find("uniqueness")
		n, _ := u.Attr("n")
		d, _ := u.Attr("distinct")
		if nn, ok := n.(int); !ok || nn < 1 || nn > g.NumNodes() {
			t.Errorf("%v: uniqueness n attr %v, want 1..%d", v, n, g.NumNodes())
		} else if dd, ok := d.(int); !ok || dd < 1 || dd > nn {
			t.Errorf("%v: uniqueness distinct attr %v, want 1..%d", v, d, nn)
		} else {
			// One exp per distinct value for the moments, then at most one
			// per (distinct value, box) pair.
			b, _ := u.Attr("boxes")
			e, _ := u.Attr("kernel_evals")
			if bb, ok := b.(int); !ok || bb < 1 || bb > dd {
				t.Errorf("%v: uniqueness boxes attr %v, want 1..%d", v, b, dd)
			} else if ee, ok := e.(int); !ok || ee < 2*dd || ee > dd+dd*bb {
				t.Errorf("%v: uniqueness kernel_evals attr %v, want %d..%d", v, e, 2*dd, dd+dd*bb)
			}
		}
	}
}
