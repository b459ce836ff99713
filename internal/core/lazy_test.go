package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"chameleon/internal/obs"
	"chameleon/internal/uncertain"
)

// eagerRun is what the eager reference search reports.
type eagerRun struct {
	graph   []byte
	sigma   float64
	epsilon float64
	calls   int
	oks     []bool
	// firstOK is, per call, the lowest accepted seq (0 when the call
	// failed): the trial a probe of that call must choose.
	firstOK []uint64
	err     error
}

// eagerSearch is a test-only reference for AnonymizeContext's σ-search:
// the same exponential search and bisection, with every GenObf call run
// in full and its best of t kept, as the search ran before calls became
// probes. It traces each call's attempts to find, per call, its lowest
// accepted seq.
func eagerSearch(t *testing.T, g *uncertain.Graph, p Params) eagerRun {
	t.Helper()
	p = p.withDefaults()
	if p.Variant == RepAn {
		g, p = repAn(g, p)
	}
	st, err := newSearchState(context.Background(), nil, g, p)
	if err != nil {
		t.Fatal(err)
	}
	var run eagerRun
	res := &Result{}
	call := func(sigma float64) genObfOutcome {
		st.phase = obs.NewSpan("call")
		out := st.genObf(context.Background(), sigma, st.seq, false, res)
		run.oks = append(run.oks, out.ok())
		var first uint64
		for _, a := range st.phase.FindAll("attempt") {
			seq, _ := attr[uint64](a, "seq")
			if ok, _ := attr[bool](a, "ok"); ok && (first == 0 || seq < first) {
				first = seq
			}
		}
		run.firstOK = append(run.firstOK, first)
		return out
	}
	lo, hi := 0.0, 4*p.SigmaTolerance
	best := call(hi)
	for doublings := 0; !best.ok(); doublings++ {
		if doublings >= p.MaxDoublings {
			run.calls, run.err = res.GenObfCalls, ErrNoObfuscation
			return run
		}
		lo, hi = hi, hi*4
		best = call(hi)
	}
	for hi-lo > p.SigmaTolerance {
		mid := (lo + hi) / 2
		if out := call(mid); out.ok() {
			hi, best = mid, out
		} else {
			lo = mid
		}
	}
	run.graph = encodeGraph(t, best.graph)
	run.sigma, run.epsilon, run.calls = hi, best.epsilon, res.GenObfCalls
	return run
}

// tracedCall is what a finished search's trace says about one of its
// genobf spans.
type tracedCall struct {
	call         int  // the call attribute; a re-run's is the call it repeats
	rerun        bool // a probe best's full re-run, no call of its own
	probe, ok    bool
	seq          uint64 // the chosen trial's seq, when ok
	read, trials int    // attempt spans not marked discarded, and all of them
}

// traceCall reads the genobf span sp.
func traceCall(sp *obs.Span) tracedCall {
	var c tracedCall
	c.call, _ = attr[int](sp, "call")
	c.rerun, _ = attr[bool](sp, "rerun")
	c.probe, _ = attr[bool](sp, "probe")
	c.ok, _ = attr[bool](sp, "ok")
	c.seq, _ = attr[uint64](sp, "seq")
	for _, a := range sp.FindAll("attempt") {
		c.trials++
		if d, _ := attr[bool](a, "discarded"); !d {
			c.read++
		}
	}
	return c
}

// tracedCalls reads root's genobf spans in trace order.
func tracedCalls(root *obs.Span) []tracedCall {
	var out []tracedCall
	for _, sp := range root.FindAll("genobf") {
		out = append(out, traceCall(sp))
	}
	return out
}

// attr returns sp's attribute key, and whether it is set and a T.
func attr[T any](sp *obs.Span, key string) (T, bool) {
	v, _ := sp.Attr(key)
	x, ok := v.(T)
	return x, ok
}

// TestLazySearchMatchesEager: the search whose calls are probes publishes
// what the eager reference publishes — the same bytes, σ, ε~, call count
// and step OK sequence — for every method, on one, two, three and eight
// workers, over three graphs. Each probe chooses the lowest accepted seq
// of its call, on every worker count. The corpus holds searches whose last
// bisection call fails, so the winner comes from a probe re-run in full,
// and searches that end in ErrNoObfuscation.
func TestLazySearchMatchesEager(t *testing.T) {
	reruns, infeasible := 0, 0
	for _, seed := range []uint64{2, 3, 5} {
		g := testGraph(t, seed)
		for _, variant := range []Variant{RSME, RS, ME, RepAn} {
			t.Run(fmt.Sprintf("graph%d/%v", seed, variant), func(t *testing.T) {
				p := Params{K: 25, Epsilon: 0.04, Samples: 60, Seed: 11, Variant: variant}
				want := eagerSearch(t, g, p)
				for _, workers := range []int{1, 2, 3, 8} {
					p.Workers, p.Obs = workers, obs.NewObserver()
					res, err := Anonymize(g, p)
					calls := int(p.Obs.Registry().Counter("core.genobf_calls").Value())
					if calls != want.calls {
						t.Errorf("%d workers: %d calls, eager %d", workers, calls, want.calls)
					}
					if want.err != nil {
						if !errors.Is(err, want.err) {
							t.Fatalf("%d workers: error %v, eager %v", workers, err, want.err)
						}
						if workers == 1 {
							infeasible++
						}
						continue
					}
					if err != nil {
						t.Fatalf("%d workers: %v", workers, err)
					}
					if res.Sigma != want.sigma || res.EpsilonTilde != want.epsilon || res.GenObfCalls != want.calls {
						t.Errorf("%d workers: (σ=%v, ε~=%v, %d calls), eager (%v, %v, %d)",
							workers, res.Sigma, res.EpsilonTilde, res.GenObfCalls, want.sigma, want.epsilon, want.calls)
					}
					if got := encodeGraph(t, res.Graph); !slices.Equal(got, want.graph) {
						t.Errorf("%d workers: published bytes differ from the eager reference", workers)
					}
					var oks []bool
					for _, c := range tracedCalls(res.Trace) {
						if c.rerun {
							reruns++
							continue
						}
						oks = append(oks, c.ok)
						if c.probe && c.ok && c.seq != want.firstOK[c.call-1] {
							t.Errorf("%d workers: call %d chose seq %d, its lowest accepted seq is %d", workers, c.call, c.seq, want.firstOK[c.call-1])
						}
					}
					if !slices.Equal(oks, want.oks) {
						t.Errorf("%d workers: step OK sequence %v, eager %v", workers, oks, want.oks)
					}
				}
			})
		}
	}
	if reruns == 0 || infeasible == 0 {
		t.Fatalf("the corpus has %d re-run winners and %d infeasible searches; it needs both", reruns, infeasible)
	}
}
