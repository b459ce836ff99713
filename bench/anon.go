package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"chameleon"
	"chameleon/internal/privacy"
	"chameleon/internal/reliability"
	"chameleon/internal/uncertain"
)

// runAnon runs one round of anon-precompute or anon-search: decode the
// input, then anonymize it back to back, each time writing the published
// graph as a v2 file. A traced round alternates untraced and traced
// operations, then times the layers from outside; its span times are
// medians over the traced operations.
func runAnon(e *childEnv) (*roundResult, error) {
	in := e.man.Inputs[0]
	p := e.man.Params
	rr := &roundResult{}
	start := time.Now()
	g, err := loadGraph(in.Path)
	if err != nil {
		return nil, err
	}
	decode := time.Since(start)
	rr.SetupS = decode.Seconds() * e.clock.setupLap()

	minOps := 1
	if e.trace {
		minOps = 2
	}
	var plainMS, tracedMS []float64
	var traced []anonRun
	gc := readGC()
	begin := time.Now()
	for i := 0; ; i++ {
		var o *chameleon.Observer
		if e.trace && i%2 == 1 {
			o = chameleon.NewObserver()
		}
		path := filepath.Join(e.dir, fmt.Sprintf("%s-r%d-%d.ug2", in.Name, e.round, i))
		run, err := anonymize(g, p, o, path, workers)
		f := e.clock.lap()
		rr.Attempted++
		if err != nil {
			rr.fail("%s operation %d: %v", in.Name, i, err)
		} else {
			ms := millis(run.total) * f
			rr.LatencyMS = append(rr.LatencyMS, ms)
			rr.RatePerS = append(rr.RatePerS, 1000/ms)
			rr.Outputs = append(rr.Outputs, output{Input: in.Name, Path: path, Digest: run.digest})
			if o != nil {
				tracedMS = append(tracedMS, ms)
				traced = append(traced, run)
			} else {
				plainMS = append(plainMS, ms)
			}
		}
		if !e.more(begin, run.total, i+1, minOps) {
			break
		}
	}
	rr.PeakRSSMB = peakRSSMB()
	if !e.trace || len(traced) == 0 || len(plainMS) == 0 {
		return rr, nil
	}

	rr.Layers = map[string]float64{
		"uncertain.decode_ms":    millis(decode),
		"harness.trace_overhead": median(tracedMS) / median(plainMS),
	}
	recordGC(rr.Layers, gc)
	if err := anonLayers(rr.Layers, g, p, traced, workers); err != nil {
		return nil, err
	}
	var totalMS []float64
	for _, run := range traced {
		totalMS = append(totalMS, millis(run.total))
	}
	for _, w := range attributionWarnings(e.man.Workload, rr.Layers, median(totalMS)/1000) {
		fmt.Fprintln(os.Stderr, "  WARNING:", w)
	}
	return rr, nil
}

// anonRun is one timed anonymization.
type anonRun struct {
	res *chameleon.Result
	obs *chameleon.Observer
	// anon is the Anonymize call; total adds encoding and writing the
	// published graph.
	anon, total time.Duration
	digest      string
}

func (p params) options(o *chameleon.Observer, workers int) chameleon.Options {
	return chameleon.Options{
		K: p.K, Epsilon: p.Eps, Method: chameleon.Method(p.Method),
		Samples: p.Samples, Attempts: p.Attempts, Seed: p.Seed,
		Workers: workers, Observer: o,
	}
}

// anonymize is one timed operation: Anonymize, then the published graph
// encoded as v2 and written to path.
func anonymize(g *uncertain.Graph, p params, o *chameleon.Observer, path string, workers int) (anonRun, error) {
	r := anonRun{obs: o}
	start := time.Now()
	res, err := chameleon.Anonymize(g, p.options(o, workers))
	if err != nil {
		return r, err
	}
	r.anon = time.Since(start)
	var buf bytes.Buffer
	if err := uncertain.WriteBinaryV2(&buf, res.Graph); err != nil {
		return r, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return r, err
	}
	r.total = time.Since(start)
	r.res = res
	r.digest = digest(buf.Bytes())
	return r, nil
}

// anonLayers fills the per-layer metrics of traced anonymizations of g:
// the precompute layers timed from outside by calling their public
// functions on the same input (and on its first half, for the scaling
// slope), the σ-search read off Result.Trace (times are medians over the
// runs), and the sampling volume read off the first run's Observer. The
// runs' outputs are identical, so the first stands for all of them.
func anonLayers(layers map[string]float64, g *uncertain.Graph, p params, runs []anonRun, workers int) error {
	run := runs[0]
	n := g.NumNodes()
	firstHalf := make([]uncertain.NodeID, n/2)
	for i := range firstHalf {
		firstHalf[i] = uncertain.NodeID(i)
	}
	half, _, err := g.InducedSubgraph(firstHalf)
	if err != nil {
		return err
	}
	uniq := timedMedian(func() { privacy.VertexUniqueness(g) })
	layers["privacy.uniqueness_s"] = uniq.Seconds()
	layers["privacy.uniqueness_slope"] = slope(timedMedian(func() { privacy.VertexUniqueness(half) }), uniq)
	layers["privacy.kernel_evals"] = float64(n) * float64(n)
	layers["privacy.distinct_expected_degrees"] = float64(distinct(g.ExpectedDegrees()))

	pub := run.res.Graph
	var checkErr error
	check := timed(func() { _, checkErr = privacy.CheckObfuscation(pub, privacy.DegreeProperty(g), p.K) })
	if checkErr != nil {
		return checkErr
	}
	layers["privacy.check_ms"] = millis(check)

	// Only the reliability-sensitive methods compute edge relevance.
	if p.Method == string(chameleon.MethodRSME) || p.Method == string(chameleon.MethodRS) {
		est := reliability.Estimator{Samples: p.Samples, Seed: p.Seed, Workers: workers}
		rel := timedMedian(func() { est.EdgeRelevance(g) })
		layers["reliability.edge_relevance_s"] = rel.Seconds()
		layers["reliability.edge_relevance_slope"] = slope(timedMedian(func() { est.EdgeRelevance(half) }), rel)
	}
	layers["reliability.worlds_sampled"] = float64(run.obs.Registry().Counter("mc.worlds_sampled").Value())
	est := reliability.Estimator{Mode: uncertain.SampleCoupled, Samples: 1000, Seed: 1, Workers: workers}
	disc, err := est.RelativeDiscrepancy(g, pub, reliability.PairSample{Seed: 2})
	if err != nil {
		return err
	}
	layers["reliability.discrepancy"] = disc

	var preS, searchS, unattributedS, attemptMS, encodeMS []float64
	for _, r := range runs {
		root := r.res.Trace()
		pre := root.Find("precompute").Duration()
		search := root.Find("exponential-search").Duration() + root.Find("bisection").Duration()
		preS = append(preS, pre.Seconds())
		searchS = append(searchS, search.Seconds())
		unattributedS = append(unattributedS, (root.Duration() - pre - search).Seconds())
		for _, a := range root.FindAll("attempt") {
			attemptMS = append(attemptMS, millis(a.Duration()))
		}
		encodeMS = append(encodeMS, millis(r.total-r.anon))
	}
	layers["core.precompute_s"] = median(preS)
	layers["core.search_s"] = median(searchS)
	layers["core.unattributed_s"] = median(unattributedS)
	layers["uncertain.encode_ms"] = median(encodeMS)

	root := run.res.Trace()
	attempts := root.FindAll("attempt")
	accepted := 0
	for _, a := range attempts {
		if ok, _ := a.Attr("ok"); ok == true {
			accepted++
		}
	}
	layers["core.genobf_calls"] = float64(len(root.FindAll("genobf")))
	layers["core.attempts"] = float64(len(attempts))
	if len(attempts) > 0 {
		layers["core.attempt_ms"] = median(attemptMS)
		layers["core.accept_ratio"] = float64(accepted) / float64(len(attempts))
	}
	layers["core.sigma"] = run.res.Sigma
	return nil
}

// attributionWarnings checks that the layers account for total, the
// traced operations' median time in seconds, timed from outside
// (core.unattributed_s is the part of the root span no child span covers),
// and that the workload stresses the layer it was designed for. On
// anon-precompute the layers timed from outside must also agree with the
// precompute span; elsewhere that span lasts a few tenths of a second, and
// a sample of it strays by more than 15% on a noisy host.
func attributionWarnings(name string, l map[string]float64, total float64) []string {
	var out []string
	pre := l["core.precompute_s"]
	outside := l["privacy.uniqueness_s"] + l["reliability.edge_relevance_s"]
	accounted := outside + l["core.search_s"] + l["core.unattributed_s"] + l["uncertain.encode_ms"]/1000
	if math.Abs(accounted-total) > 0.15*total {
		out = append(out, fmt.Sprintf("the layers account for %.3fs of a %.3fs traced operation", accounted, total))
	}
	switch name {
	case "anon-precompute":
		if math.Abs(outside-pre) > 0.15*pre {
			out = append(out, fmt.Sprintf("uniqueness + edge relevance took %.3fs, the precompute span %.3fs (more than 15%% apart)", outside, pre))
		}
		if pre < 0.5*total {
			out = append(out, fmt.Sprintf("precompute is %.0f%% of the operation, designed to be at least 50%%", 100*pre/total))
		}
	case "anon-search":
		if s := l["core.search_s"]; s < 0.7*total {
			out = append(out, fmt.Sprintf("the σ-search is %.0f%% of the operation, designed to be at least 70%%", 100*s/total))
		}
		if l["reliability.edge_relevance_s"] != 0 {
			out = append(out, "edge relevance ran on a workload designed to bypass it")
		}
	}
	return out
}

// timed returns how long f takes.
func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// timedMedian returns the median time of three calls of f, which damps the
// host's noise on the precompute layers the slopes are computed from.
func timedMedian(f func()) time.Duration {
	var ds []float64
	for range 3 {
		ds = append(ds, float64(timed(f)))
	}
	return time.Duration(median(ds))
}

// slope is the log-log scaling exponent between a run at n/2 and one at n.
func slope(half, full time.Duration) float64 {
	return math.Log(full.Seconds()/half.Seconds()) / math.Log(2)
}

func distinct(xs []float64) int {
	seen := make(map[float64]bool, len(xs))
	for _, x := range xs {
		seen[x] = true
	}
	return len(seen)
}
