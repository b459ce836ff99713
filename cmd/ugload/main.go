// Command ugload load-tests the query plane: it drives typed queries
// (pairwise reliability, k-NN, degree/centrality metrics) against an
// uncertain graph and reports SLO-grade latency quantiles from HDR
// histograms.
//
// Two loop disciplines are built in, because they answer different
// questions:
//
//   - open loop (-mode open): requests arrive on a Poisson schedule at
//     -qps regardless of how fast the server answers, like independent
//     clients. Latency is measured from each request's *intended* start,
//     so a stall penalizes every request scheduled behind it — the
//     coordinated-omission-free number an operator's SLO is about. The
//     same run also records raw service times through the CO corrector
//     (view open/service) so the two estimates can be compared.
//   - closed loop (-mode closed): -workers callers issue requests
//     back-to-back, measuring pure service time under saturation — the
//     capacity number.
//
// The run prints a latency/throughput table, appends per-mode metric
// snapshots to the -journal, and with -bench-out writes a
// BENCH_load.json artifact (qps, p50/p99/p999 ns, error rate) in the
// benchcmp schema so CI can gate tail-latency regressions.
//
// Usage:
//
//	ugload -nodes 300 -mode both -qps 500 -workers 16 -duration 2s
//	ugload -g graph.tsv -mode open -qps 2000 -bench-out BENCH_load.json
//	ugload -nodes 300 -mode closed -serve 127.0.0.1:0   # drive the HTTP plane
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"chameleon/cmd/internal/runner"
	"chameleon/internal/gen"
	"chameleon/internal/obs"
	"chameleon/internal/obs/hdr"
	"chameleon/internal/obs/wideevent"
	"chameleon/internal/query"
	"chameleon/internal/uncertain"
)

type config struct {
	graphPath string
	nodes     int
	mode      string
	qps       float64
	workers   int
	duration  time.Duration
	warmup    time.Duration
	mix       []mixEntry
	k         int
	samples   int
	seed      uint64
	benchOut  string
	sloP99    time.Duration
}

func main() {
	var (
		graphPath = flag.String("g", "", "uncertain graph TSV (default: generate a BA graph)")
		nodes     = flag.Int("nodes", 300, "vertices of the generated graph when -g is absent")
		mode      = flag.String("mode", "both", "loop discipline: open | closed | both")
		qps       = flag.Float64("qps", 500, "open-loop arrival rate (Poisson)")
		workers   = flag.Int("workers", 16, "closed-loop concurrency")
		duration  = flag.Duration("duration", 2*time.Second, "measured run length per mode")
		warmup    = flag.Duration("warmup", 200*time.Millisecond, "unmeasured warmup before the first mode")
		mixSpec   = flag.String("mix", "pair_reliability=4,knn=2,degree=3,degree_distribution=1,centrality=1", "query mix as kind=weight, comma-separated")
		k         = flag.Int("k", 8, "answer-set size for knn queries")
		samples   = flag.Int("samples", 256, "Monte Carlo world budget for reliability-backed queries")
		seed      = flag.Uint64("seed", 1, "seed for graph generation, the query mix and arrivals")
		serve     = flag.String("serve", "", "serve telemetry + /query on this address and drive the HTTP plane instead of in-process calls")
		events    = flag.String("events", "", "append sampled wide events (JSONL) here")
		sampleEv  = flag.Int("sample-events", 64, "keep 1-in-N ok wide events (errors and slow requests always kept)")
		benchOut  = flag.String("bench-out", "", "write a benchcmp artifact (BENCH_load.json schema) here")
		journalP  = flag.String("journal", "", "append a run journal (JSONL) here")
		sloP99    = flag.Duration("slo-p99", 0, "fail the run when a gated view's p99 exceeds this latency (0 = off)")
	)
	flag.Parse()

	cfg := config{
		graphPath: *graphPath, nodes: *nodes, mode: *mode, qps: *qps,
		workers: *workers, duration: *duration, warmup: *warmup,
		k: *k, samples: *samples, seed: *seed, benchOut: *benchOut, sloP99: *sloP99,
	}
	code, err := run(cfg, *mixSpec, *serve, *events, *sampleEv, *journalP)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ugload:", err)
		if errors.As(err, new(runner.UsageError)) {
			flag.Usage()
		}
		os.Exit(runner.ExitCode(err))
	}
	os.Exit(code)
}

// run validates flags, builds the graph and engine, and hands off to the
// runner harness. Returns a non-zero code via runner.Main's lifecycle,
// or an error for pre-harness failures (usage, graph load).
func run(cfg config, mixSpec, serve, events string, sampleEv int, journalPath string) (int, error) {
	switch cfg.mode {
	case "open", "closed", "both":
	default:
		return 0, runner.Usagef("-mode must be open, closed or both, got %q", cfg.mode)
	}
	if cfg.qps <= 0 {
		return 0, runner.Usagef("-qps must be positive, got %v", cfg.qps)
	}
	if cfg.workers < 1 {
		return 0, runner.Usagef("-workers must be >= 1, got %d", cfg.workers)
	}
	if cfg.duration <= 0 {
		return 0, runner.Usagef("-duration must be positive, got %v", cfg.duration)
	}
	mix, err := parseMix(mixSpec)
	if err != nil {
		return 0, runner.UsageError{Err: err}
	}
	cfg.mix = mix

	g, err := buildGraph(cfg)
	if err != nil {
		return 0, err
	}

	o := obs.NewObserver()
	var ew *wideevent.Writer
	if events != "" {
		ew, err = wideevent.Open(events, wideevent.Options{
			SampleEvery: sampleEv, SlowThreshold: 100 * time.Millisecond})
		if err != nil {
			return 0, err
		}
		defer ew.Close()
	}
	eng := query.New(g, query.Options{
		Samples: cfg.samples, Seed: cfg.seed, Obs: o, Events: ew,
	})

	code := runner.Main(runner.Options{
		Command:       "ugload",
		Args:          os.Args[1:],
		JournalPath:   journalPath,
		ServeAddr:     serve,
		Observer:      o,
		ExtraHandlers: map[string]http.Handler{"/query": eng.Handler()},
	}, func(env *runner.Env) error {
		return load(env, eng, cfg)
	})
	return code, nil
}

func buildGraph(cfg config) (*uncertain.Graph, error) {
	if cfg.graphPath != "" {
		return uncertain.LoadFile(cfg.graphPath)
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 0x10ad))
	return gen.BarabasiAlbert(cfg.nodes, 3, gen.UniformProbs(0.2, 0.9), rng)
}

// mixEntry is one weighted query kind in the generated workload.
type mixEntry struct {
	kind   string
	weight int
}

func parseMix(spec string) ([]mixEntry, error) {
	known := map[string]bool{}
	for _, k := range query.Kinds() {
		known[k] = true
	}
	var out []mixEntry
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, ws, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("-mix entry %q: want kind=weight", part)
		}
		if !known[kind] {
			return nil, fmt.Errorf("-mix kind %q unknown (known: %s)", kind, strings.Join(query.Kinds(), ", "))
		}
		w, err := strconv.Atoi(ws)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("-mix entry %q: weight must be a positive integer", part)
		}
		out = append(out, mixEntry{kind: kind, weight: w})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-mix is empty")
	}
	return out, nil
}

// genReq draws one request from the weighted mix.
func genReq(rng *rand.Rand, n int, cfg config) query.Request {
	total := 0
	for _, m := range cfg.mix {
		total += m.weight
	}
	x := rng.IntN(total)
	kind := cfg.mix[len(cfg.mix)-1].kind
	for _, m := range cfg.mix {
		if x < m.weight {
			kind = m.kind
			break
		}
		x -= m.weight
	}
	req := query.Request{Kind: kind}
	switch kind {
	case query.KindPairReliability:
		req.U = uncertain.NodeID(rng.IntN(n))
		req.V = uncertain.NodeID(rng.IntN(n))
	case query.KindKNN:
		req.U = uncertain.NodeID(rng.IntN(n))
		req.K = cfg.k
	case query.KindDegree, query.KindCentrality:
		req.U = uncertain.NodeID(rng.IntN(n))
	}
	return req
}

// doer issues one request, in-process or over HTTP.
type doer func(ctx context.Context, req query.Request) error

func inprocDoer(eng *query.Engine) doer {
	return func(ctx context.Context, req query.Request) error {
		_, err := eng.Do(ctx, req)
		return err
	}
}

func httpDoer(addr string) doer {
	client := &http.Client{}
	url := "http://" + addr + "/query"
	return func(ctx context.Context, req query.Request) error {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return err
		}
		hreq.Header.Set("Content-Type", "application/json")
		res, err := client.Do(hreq)
		if err != nil {
			return err
		}
		defer res.Body.Close()
		var qr query.Response
		if err := json.NewDecoder(res.Body).Decode(&qr); err != nil {
			return err
		}
		io.Copy(io.Discard, res.Body)
		if qr.Error != "" {
			return errors.New(qr.Error)
		}
		return nil
	}
}

// view is one recorded latency stream of a run.
type view struct {
	Mode, View string
	Reqs, Errs int64
	Wall       time.Duration
	Snap       hdr.Snapshot
}

func (v view) qps() float64 {
	if v.Wall <= 0 {
		return 0
	}
	return float64(v.Reqs) / v.Wall.Seconds()
}

func load(env *runner.Env, eng *query.Engine, cfg config) error {
	do := inprocDoer(eng)
	target := "in-process"
	if env.ServeAddr != "" {
		do = httpDoer(env.ServeAddr)
		target = "http://" + env.ServeAddr + "/query"
	}

	// Pay the one-time sampling and precompute costs before measuring:
	// Warm populates the label cache, the warmup loop touches every kind
	// in the mix (so lazy precomputes like centrality run here, not
	// inside the measured window).
	eng.Warm(env.Ctx)
	for _, m := range cfg.mix {
		// One deterministic request per kind forces every lazy precompute
		// (centrality, the degree distribution) before measurement.
		req := query.Request{Kind: m.kind, U: 0, V: 0, K: cfg.k}
		do(env.Ctx, req)
	}
	warmupLoop(env.Ctx, do, eng.Graph().NumNodes(), cfg)
	if err := env.Ctx.Err(); err != nil {
		return err
	}

	g := eng.Graph()
	fmt.Fprintf(os.Stderr, "ugload: %d nodes, %d edges, target %s, mix %s\n",
		g.NumNodes(), g.NumEdges(), target, mixString(cfg.mix))

	var views []view
	runMode := func(mode string) error {
		var vs []view
		switch mode {
		case "open":
			vs = openLoop(env.Ctx, do, eng, cfg)
		case "closed":
			vs = closedLoop(env.Ctx, do, eng, cfg)
		}
		views = append(views, vs...)
		// One journal snapshot per completed mode, so tracestat can
		// attribute the counter/latency deltas to the loop discipline.
		if env.Obs != nil {
			env.Journal.WriteSnapshot(time.Now(), env.Obs.Registry().Snapshot(), nil)
		}
		return env.Ctx.Err()
	}
	modes := []string{cfg.mode}
	if cfg.mode == "both" {
		modes = []string{"open", "closed"}
	}
	for _, m := range modes {
		if err := runMode(m); err != nil {
			return err
		}
	}

	printTable(os.Stdout, views)
	if cfg.benchOut != "" {
		if err := writeBench(cfg.benchOut, views); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "ugload: wrote %s\n", cfg.benchOut)
	}
	return checkSLO(views, cfg.sloP99)
}

func mixString(mix []mixEntry) string {
	parts := make([]string, len(mix))
	for i, m := range mix {
		parts[i] = fmt.Sprintf("%s=%d", m.kind, m.weight)
	}
	return strings.Join(parts, ",")
}

// warmupLoop runs a short unmeasured closed loop over the full mix, so
// lazy per-kind precomputes (centrality, the degree distribution) run
// before the measured window.
func warmupLoop(ctx context.Context, do doer, n int, cfg config) {
	if cfg.warmup <= 0 {
		return
	}
	workers := cfg.workers
	if workers > 4 {
		workers = 4
	}
	deadline := time.Now().Add(cfg.warmup)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(cfg.seed, 0xaa00+uint64(w)))
			for ctx.Err() == nil && time.Now().Before(deadline) {
				do(ctx, genReq(rng, n, cfg))
			}
		}(w)
	}
	wg.Wait()
}

// openLoop drives Poisson arrivals at cfg.qps: each request has a
// deterministic intended start; its latency is completion minus that
// intended start, however late dispatch actually happened. The same
// completions also feed a service-time histogram through the
// coordinated-omission corrector, so the two estimates of the same
// truth sit side by side in the output.
func openLoop(ctx context.Context, do doer, eng *query.Engine, cfg config) []view {
	n := eng.Graph().NumNodes()
	rng := rand.New(rand.NewPCG(cfg.seed, 0x09e4))
	meanIntervalNS := float64(time.Second) / cfg.qps

	// Pre-generate the arrival schedule so the dispatch loop does no
	// random-number work on the critical path.
	type arrival struct {
		at  time.Duration
		req query.Request
	}
	var schedule []arrival
	var t time.Duration
	for {
		t += time.Duration(rng.ExpFloat64() * meanIntervalNS)
		if t > cfg.duration {
			break
		}
		schedule = append(schedule, arrival{at: t, req: genReq(rng, n, cfg)})
	}

	intended := hdr.NewRecorder()
	service := hdr.NewRecorder()
	var errs atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	dispatched := 0
	for _, a := range schedule {
		if ctx.Err() != nil {
			break
		}
		if wait := time.Until(start.Add(a.at)); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
			if ctx.Err() != nil {
				break
			}
		}
		dispatched++
		wg.Add(1)
		go func(a arrival) {
			defer wg.Done()
			svcStart := time.Now()
			err := do(ctx, a.req)
			end := time.Now()
			if err != nil {
				errs.Add(1)
			}
			intended.RecordDuration(end.Sub(start.Add(a.at)))
			service.RecordCorrected(int64(end.Sub(svcStart)), int64(meanIntervalNS))
		}(a)
	}
	wg.Wait()
	wall := time.Since(start)
	return []view{
		{Mode: "open", View: "intended", Reqs: int64(dispatched), Errs: errs.Load(), Wall: wall, Snap: intended.Snapshot()},
		{Mode: "open", View: "service", Reqs: service.Count(), Errs: errs.Load(), Wall: wall, Snap: service.Snapshot()},
	}
}

// closedLoop saturates the engine with cfg.workers back-to-back callers
// and records pure service time.
func closedLoop(ctx context.Context, do doer, eng *query.Engine, cfg config) []view {
	n := eng.Graph().NumNodes()
	rec := hdr.NewRecorder()
	var reqs, errs atomic.Int64
	deadline := time.Now().Add(cfg.duration)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(cfg.seed, 0xc105ed+uint64(w)))
			for ctx.Err() == nil && time.Now().Before(deadline) {
				req := genReq(rng, n, cfg)
				s := time.Now()
				err := do(ctx, req)
				rec.RecordDuration(time.Since(s))
				reqs.Add(1)
				if err != nil {
					errs.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	return []view{{Mode: "closed", View: "service", Reqs: reqs.Load(), Errs: errs.Load(), Wall: wall, Snap: rec.Snapshot()}}
}

func printTable(w io.Writer, views []view) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "MODE\tVIEW\tREQS\tERR\tQPS\tp50\tp90\tp99\tp999\tmax")
	for _, v := range views {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.0f\t%v\t%v\t%v\t%v\t%v\n",
			v.Mode, v.View, v.Reqs, v.Errs, v.qps(),
			time.Duration(v.Snap.Quantile(0.50)),
			time.Duration(v.Snap.Quantile(0.90)),
			time.Duration(v.Snap.Quantile(0.99)),
			time.Duration(v.Snap.Quantile(0.999)),
			time.Duration(v.Snap.Max))
	}
	tw.Flush()
}

// benchEntry is one BENCH_load.json record: the benchcmp base schema
// plus the load-harness extension fields.
type benchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int64   `json:"iterations"`
	P50NS       int64   `json:"p50_ns"`
	P99NS       int64   `json:"p99_ns"`
	P999NS      int64   `json:"p999_ns"`
	QPS         float64 `json:"qps"`
	ErrorRate   float64 `json:"error_rate"`
}

// gated returns the SLO-bearing view of each mode: intended-start
// latency for the open loop (the CO-free number), service time for the
// closed loop.
func gated(views []view) []view {
	var out []view
	for _, v := range views {
		if (v.Mode == "open" && v.View == "intended") || (v.Mode == "closed" && v.View == "service") {
			out = append(out, v)
		}
	}
	return out
}

func writeBench(path string, views []view) error {
	var entries []benchEntry
	for _, v := range gated(views) {
		errRate := 0.0
		if v.Reqs > 0 {
			errRate = float64(v.Errs) / float64(v.Reqs)
		}
		entries = append(entries, benchEntry{
			Name:        "ugload/" + v.Mode,
			NsPerOp:     v.Snap.Mean(),
			AllocsPerOp: 0,
			Iterations:  v.Reqs,
			P50NS:       v.Snap.Quantile(0.50),
			P99NS:       v.Snap.Quantile(0.99),
			P999NS:      v.Snap.Quantile(0.999),
			QPS:         v.qps(),
			ErrorRate:   errRate,
		})
	}
	raw, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func checkSLO(views []view, sloP99 time.Duration) error {
	if sloP99 <= 0 {
		return nil
	}
	for _, v := range gated(views) {
		if p99 := time.Duration(v.Snap.Quantile(0.99)); p99 > sloP99 {
			return fmt.Errorf("SLO violation: %s/%s p99 %v exceeds %v", v.Mode, v.View, p99, sloP99)
		}
		if v.Reqs == 0 {
			return fmt.Errorf("SLO check: %s/%s completed zero requests", v.Mode, v.View)
		}
	}
	return nil
}
