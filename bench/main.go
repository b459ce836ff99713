// Command bench is Chameleon's end-to-end benchmark. It generates seeded
// uncertain graphs, runs one workload on them through the public entry
// points of the system (chameleon.Anonymize, jobs.Manager, query.Engine),
// checks every output, and prints one JSON result as the last line of its
// standard output:
//
//	bash bench/run.sh --workload anon-precompute --seed 1 --seconds 20 --trace 0
//
// Each run is split into rounds, and each round runs in a fresh child
// process (the binary re-executes itself), so set-up time, peak memory
// and garbage-collector state belong to one round. With --trace 1 the run
// makes one traced round and reports per-layer metrics instead of the
// end-to-end ones. Without --workload every workload runs in turn. See
// README.md for the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"

	"chameleon/internal/testkit"
)

// rounds is the number of fresh child processes of an untraced run: each
// sets up once, so setup_s is a median of this many set-ups.
const rounds = 10

// runDeadline bounds a whole invocation, children included.
const runDeadline = 170 * time.Second

// workRoot holds each run's inputs, outputs and spools; the run removes
// its own directory when it ends.
const workRoot = ".bench_build"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := childMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(parentMain(os.Args[1:]))
}

// runConfig is one invocation's command line.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	// root is the directory the run's work directory goes under.
	root string
}

func parentMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: every workload in turn)")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 20, "measured seconds of the run, split across its rounds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from one traced round instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: need --seconds > 0, --trace 0 or 1, and no positional arguments")
		return 2
	}
	ws := workloads(fullSizes)
	if *name != "" {
		w, err := workloadByName(*name, fullSizes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	// An interrupt or the deadline kills the running child; the run then
	// cleans up and exits without a result.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline*time.Duration(len(ws)))
	defer cancel()
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, root: workRoot}
	code := 0
	for _, w := range ws {
		res, err := runWorkload(ctx, w, cfg, spawnProcess)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		raw, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(raw))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with --trace 0. Each workload has one kind of unit of work: an
// anonymization (written as a v2 file), a job, or a query.
var endToEnd = []metricDef{
	// Every time is reported at the reference host speed (hostspeed.go).
	//
	// setup_s is the median over rounds of the time from a fresh child
	// opening its input files until its first timed operation can start
	// (decode, manager start, engine warm-up and lazy precomputes).
	{"setup_s", "s"},
	// latency_p50_ms is the median time of one unit of work.
	{"latency_p50_ms", "ms"},
	// throughput_per_s is the median, over slices of the run (one
	// anonymization, one job burst, one second of queries), of units
	// completed per second.
	{"throughput_per_s", "1/s"},
	// peak_rss_mb is the median over rounds of a child's peak resident
	// memory, read before any check runs.
	{"peak_rss_mb", "MB"},
}

// perLayer are the single-layer metrics reported with --trace 1. A metric
// of a layer the workload does not use reads 0.
var perLayer = []metricDef{
	{"uncertain.decode_ms", "ms"},
	{"uncertain.encode_ms", "ms"},
	{"privacy.uniqueness_s", "s"},
	{"privacy.uniqueness_slope", "ratio"},
	{"privacy.kernel_evals", "count"},
	{"privacy.distinct_expected_degrees", "count"},
	{"privacy.check_ms", "ms"},
	{"reliability.edge_relevance_s", "s"},
	{"reliability.edge_relevance_slope", "ratio"},
	{"reliability.worlds_sampled", "count"},
	{"reliability.label_warm_s", "s"},
	{"reliability.vector_us", "us"},
	{"reliability.label_cache_hit_ratio", "ratio"},
	{"reliability.discrepancy", "ratio"},
	{"core.precompute_s", "s"},
	{"core.search_s", "s"},
	{"core.unattributed_s", "s"},
	{"core.genobf_calls", "count"},
	{"core.attempts", "count"},
	{"core.attempt_ms", "ms"},
	{"core.accept_ratio", "ratio"},
	{"core.sigma", "sigma"},
	{"knn.query_us", "us"},
	{"query.lazy_precompute_s", "s"},
	{"query.pair_reliability.p50_us", "us"},
	{"query.pair_reliability.p99_us", "us"},
	{"query.knn.p50_us", "us"},
	{"query.knn.p99_us", "us"},
	{"query.degree.p50_us", "us"},
	{"query.degree.p99_us", "us"},
	{"query.degree_distribution.p50_us", "us"},
	{"query.degree_distribution.p99_us", "us"},
	{"query.centrality.p50_us", "us"},
	{"query.centrality.p99_us", "us"},
	{"jobs.submit_ms", "ms"},
	{"jobs.queue_wait_s", "s"},
	{"jobs.run_s", "s"},
	{"jobs.overhead_ratio", "ratio"},
	{"jobs.spool_bytes", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"harness.gen_s", "s"},
	{"harness.check_s", "s"},
	{"harness.trace_overhead", "ratio"},
	{"harness.host_speed", "ratio"},
}

// output is one published graph a round wrote, for the parent to check.
type output struct {
	Input  string `json:"input"`
	Path   string `json:"path"`
	Digest string `json:"digest"`
}

// roundResult is what one child round reports to the parent.
type roundResult struct {
	SetupS float64 `json:"setup_s"`
	// LatencyMS holds one sample per completed unit of work.
	LatencyMS []float64 `json:"latency_ms"`
	// RatePerS holds units per second, one sample per slice of the round.
	RatePerS  []float64 `json:"rate_per_s"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Outputs   []output  `json:"outputs"`
	// Problems are correctness failures the round found itself.
	Problems []string `json:"problems"`
	// Layers holds the per-layer metrics of a traced round.
	Layers map[string]float64 `json:"layers"`
	// HostSpeed holds the round's reference-speed factors, one per slice.
	HostSpeed []float64 `json:"host_speed"`
}

func (r *roundResult) fail(format string, args ...any) {
	r.Failed++
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// childArgs are the arguments of one round.
type childArgs struct {
	dir    string
	round  int
	window time.Duration
	trace  bool
}

func (a childArgs) argv() []string {
	return []string{"child", "-dir", a.dir, "-round", strconv.Itoa(a.round),
		"-window", a.window.String(), "-trace=" + strconv.FormatBool(a.trace)}
}

// spawnFunc runs one round and returns its result.
type spawnFunc func(ctx context.Context, a childArgs) (*roundResult, error)

// spawnProcess runs the round in a fresh child process of this binary and
// waits for it to exit.
func spawnProcess(ctx context.Context, a childArgs) (*roundResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, a.argv()...)
	cmd.Stderr = os.Stderr
	// The child must not outlive this process, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("round %d: %w", a.round, err)
	}
	var rr roundResult
	if err := json.Unmarshal(out, &rr); err != nil {
		return nil, fmt.Errorf("round %d: decoding result: %w", a.round, err)
	}
	return &rr, nil
}

// runWorkload generates the inputs, runs the rounds, checks the outputs
// and assembles the result line.
func runWorkload(ctx context.Context, w *workload, cfg runConfig, spawn spawnFunc) (*result, error) {
	dir, err := filepath.Abs(filepath.Join(cfg.root, fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	man, err := writeInputs(dir, w, cfg.seed)
	if err != nil {
		return nil, err
	}
	genS := time.Since(start).Seconds()
	fmt.Fprintf(os.Stderr, "%s (seed %d): %s\n", w.name, cfg.seed, w.why)
	for _, in := range man.Inputs {
		fmt.Fprintf(os.Stderr, "  input %-10s %6d nodes %7d edges sha256 %s\n", in.Name, in.Nodes, in.Edges, in.SHA256)
	}

	n := rounds
	if cfg.trace {
		n = 1
	}
	window := time.Duration(cfg.seconds / float64(n) * float64(time.Second))
	var rs []*roundResult
	for r := range n {
		rr, err := spawn(ctx, childArgs{dir: dir, round: r, window: window, trace: cfg.trace})
		if err != nil {
			return nil, err
		}
		rs = append(rs, rr)
	}

	start = time.Now()
	problems := checkOutputs(man, rs)
	checkS := time.Since(start).Seconds()

	res := &result{Failed: len(problems), Metrics: map[string]metric{}}
	for _, rr := range rs {
		res.Attempted += rr.Attempted
		res.Failed += rr.Failed
		for _, p := range rr.Problems {
			fmt.Fprintln(os.Stderr, "  FAILED:", p)
		}
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "  FAILED:", p)
	}
	res.Correct = res.Failed == 0
	if res.Attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	if cfg.trace {
		layers := rs[0].Layers
		if layers == nil {
			return nil, errors.New("the traced round reported no layers")
		}
		layers["harness.gen_s"] = genS
		layers["harness.check_s"] = checkS
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{Value: layers[d.name], Unit: d.unit}
		}
	} else {
		for _, d := range endToEnd {
			xs := endToEndSamples(d.name, rs)
			if len(xs) == 0 {
				return nil, fmt.Errorf("no samples of %s", d.name)
			}
			res.Metrics[d.name] = metric{Value: median(xs), Unit: d.unit}
		}
	}
	report(os.Stderr, res, rs, cfg.trace)
	return res, nil
}

// endToEndSamples pools the samples of one end-to-end metric over rounds.
func endToEndSamples(name string, rs []*roundResult) []float64 {
	var xs []float64
	for _, rr := range rs {
		switch name {
		case "setup_s":
			xs = append(xs, rr.SetupS)
		case "latency_p50_ms":
			xs = append(xs, rr.LatencyMS...)
		case "throughput_per_s":
			xs = append(xs, rr.RatePerS...)
		case "peak_rss_mb":
			xs = append(xs, rr.PeakRSSMB)
		}
	}
	return xs
}

// checkOutputs is the parent's half of the correctness gate (the rounds
// check the query answers themselves): the determinism contract, that
// every output of one input has the same bytes across operations and
// rounds, and an independent (k, ε) certificate of each published graph.
func checkOutputs(man *manifest, rs []*roundResult) []string {
	var problems []string
	first := map[string]output{}
	var order []string
	for _, rr := range rs {
		for _, o := range rr.Outputs {
			f, seen := first[o.Input]
			if !seen {
				first[o.Input] = o
				order = append(order, o.Input)
				continue
			}
			if o.Digest != f.Digest {
				problems = append(problems, fmt.Sprintf("%s: output %s differs from %s (sha256 %.12s vs %.12s)",
					o.Input, filepath.Base(o.Path), filepath.Base(f.Path), o.Digest, f.Digest))
			}
		}
	}
	paths := map[string]string{}
	for _, in := range man.Inputs {
		paths[in.Name] = in.Path
	}
	for _, name := range order {
		if err := certify(paths[name], first[name].Path, man.Params); err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", name, err))
		}
	}
	return problems
}

// certify re-verifies the (k, ε)-obfuscation of one published graph with
// the independent checker of internal/testkit.
func certify(origPath, pubPath string, p params) error {
	orig, err := loadGraph(origPath)
	if err != nil {
		return err
	}
	pub, err := loadGraph(pubPath)
	if err != nil {
		return err
	}
	cert, err := testkit.CheckCertificate(orig, pub, p.K, p.Eps)
	if err != nil {
		return err
	}
	if !cert.Valid {
		return fmt.Errorf("not (k=%d, eps=%g)-obfuscated: eps~ %g", p.K, p.Eps, cert.EpsilonTilde)
	}
	return nil
}

// report prints every metric with its quartiles and sample count.
func report(w io.Writer, res *result, rs []*roundResult, trace bool) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		if trace {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, m.Value, m.Unit)
			continue
		}
		xs := endToEndSamples(name, rs)
		q1, _, q3 := quartiles(xs)
		line := fmt.Sprintf("  %-18s %12.6g %-5s q1 %.6g q3 %.6g n %d", name, m.Value, m.Unit, q1, q3, len(xs))
		if pct, v, ok := tail(xs); ok && name == "latency_p50_ms" {
			line += fmt.Sprintf("; p%g %.6g", pct, v)
		}
		fmt.Fprintln(w, line)
	}
	var speed []float64
	for _, rr := range rs {
		speed = append(speed, rr.HostSpeed...)
	}
	if len(speed) > 0 {
		fmt.Fprintf(w, "  host speed (reference / measured kernel time) median %.3f, min %.3f, max %.3f over %d slices\n",
			median(speed), slices.Min(speed), slices.Max(speed), len(speed))
	}
	fmt.Fprintf(w, "  correct %v, %d attempted, %d failed\n", res.Correct, res.Attempted, res.Failed)
}

// childEnv is what a round runs with.
type childEnv struct {
	man    *manifest
	dir    string
	round  int
	window time.Duration
	trace  bool
	// clock brackets the round's timed slices; see hostspeed.go.
	clock *hostClock
}

// more reports whether another operation fits the round: one that would
// end less than half an operation past the window still runs, so the
// round ends as close to the window as the operation size allows. At
// least minOps operations always run.
func (e *childEnv) more(begin time.Time, last time.Duration, done, minOps int) bool {
	if done < minOps {
		return true
	}
	return time.Since(begin)+last/2 < e.window
}

func childMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	dir := fs.String("dir", "", "run directory holding the manifest")
	round := fs.Int("round", 0, "round number")
	window := fs.Duration("window", time.Second, "measured time of the round")
	trace := fs.Bool("trace", false, "run the traced pass")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rr, err := runChild(childArgs{dir: *dir, round: *round, window: *window, trace: *trace})
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(rr)
}

func runChild(a childArgs) (*roundResult, error) {
	man, err := readManifest(a.dir)
	if err != nil {
		return nil, err
	}
	w, err := workloadByName(man.Workload, fullSizes)
	if err != nil {
		return nil, err
	}
	e := &childEnv{man: man, dir: a.dir, round: a.round, window: a.window, trace: a.trace, clock: newHostClock()}
	rr, err := w.run(e)
	if err != nil {
		return nil, err
	}
	rr.HostSpeed = e.clock.factors
	if rr.Layers != nil {
		rr.Layers["harness.host_speed"] = median(e.clock.factors)
	}
	return rr, nil
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcStats snapshots the garbage collector's cumulative counters.
type gcStats struct {
	// cycles leaves out the collections the host clock forces between
	// slices; pauseNS keeps their pauses.
	cycles  uint32
	pauseNS uint64
}

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{cycles: ms.NumGC - ms.NumForcedGC, pauseNS: ms.PauseTotalNs}
}

// recordGC stores the collector's work since before in the layers.
func recordGC(layers map[string]float64, before gcStats) {
	now := readGC()
	layers["runtime.gc_cycles"] = float64(now.cycles - before.cycles)
	layers["runtime.gc_pause_ms"] = float64(now.pauseNS-before.pauseNS) / 1e6
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
