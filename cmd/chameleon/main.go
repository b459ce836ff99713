// Command chameleon anonymizes an uncertain graph under the syntactic
// (k, eps)-obfuscation privacy model while minimizing reliability
// distortion.
//
// Usage:
//
//	chameleon -in g.tsv -out g_anon.tsv -k 20 -eps 0.01 -method RSME
//
// Interruption: the first SIGINT/SIGTERM stops the run at the next safe
// point (a second forces immediate exit); with -checkpoint FILE the
// σ-search state is saved atomically so -resume FILE continues it later,
// bit-identical to an uninterrupted run. -deadline DUR bounds the wall
// clock, degrading gracefully: if a feasible obfuscation was already
// found the best-so-far graph is written and the process exits 0,
// otherwise it exits 124.
//
// Observability: -v logs structured progress to stderr; -stats FILE dumps
// the final metrics registry and the full sigma-search trace as JSON
// (-stats - writes the aligned-text form to stderr); -serve ADDR keeps a
// live telemetry endpoint (/metrics, /healthz, /runs, /trace,
// /debug/pprof) up for the duration of the run; -journal FILE appends a
// replayable JSONL run journal whose span records keep the σ-search
// timeline on every exit path, interrupts and deadlines included (read
// it with tracestat, which also converts it for Perfetto); -cpuprofile,
// -memprofile and -trace enable the runtime profilers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"chameleon"
	"chameleon/cmd/internal/runner"
)

func main() {
	var (
		in        = flag.String("in", "", "input uncertain graph (TSV)")
		out       = flag.String("out", "", "output anonymized graph (TSV, default stdout)")
		k         = flag.Int("k", 20, "obfuscation level k")
		eps       = flag.Float64("eps", 0.01, "tolerance epsilon (fraction of vertices allowed to stay exposed)")
		method    = flag.String("method", "RSME", "method: RSME | RS | ME | Rep-An")
		samples   = flag.Int("samples", 1000, "Monte Carlo samples for reliability relevance")
		smpMode   = flag.String("sampling-mode", "independent", "world sampling strategy: independent | antithetic | stratified | coupled")
		targetRSE = flag.Float64("target-rse", 0, "adaptive stopping: sample until the relative standard error falls below this target (0 = fixed -samples budget)")
		maxSmp    = flag.Int("max-samples", 0, "cap on adaptive sampling (0 = package default; requires -target-rse)")
		seed      = flag.Uint64("seed", 1, "random seed")
		workers   = flag.Int("workers", 0, "parallelism of Monte Carlo sampling and GenObf attempts (0 = all cores)")
		binaryF   = flag.Bool("binary", false, "write the sectioned v2 binary format instead of TSV")
		quiet     = flag.Bool("q", false, "suppress the summary on stderr")
		verbose   = flag.Bool("v", false, "log structured progress to stderr")
		stats     = flag.String("stats", "", "dump the final metrics snapshot: a path writes JSON, '-' writes text to stderr")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		trace     = flag.String("trace", "", "write a runtime execution trace to this file")
		serveAt   = flag.String("serve", "", "serve live telemetry (/metrics, /healthz, /runs, /debug/pprof) on this address for the duration of the run")
		jrnPath   = flag.String("journal", "", "append a JSONL run journal (begin, periodic snapshots, phase spans, final CI report) to this file")
		deadline  = flag.Duration("deadline", 0, "bound the run's wall clock; on expiry the best-so-far graph is written (exit 0) or, with nothing found yet, the run fails (exit 124)")
		ckptPath  = flag.String("checkpoint", "", "save the σ-search state to this file on interrupt (atomic write; enables -resume)")
		ckptEvery = flag.Int("checkpoint-every", 0, "additionally checkpoint every N genobf calls (requires -checkpoint)")
		resumeAt  = flag.String("resume", "", "resume an interrupted σ-search from this checkpoint file")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "chameleon: -in is required")
		flag.Usage()
		os.Exit(2)
	}

	obs := chameleon.NewObserver()
	if *verbose {
		obs.Logger = chameleon.NewLogger(os.Stderr)
	}

	os.Exit(runner.Main(runner.Options{
		Command:     "chameleon",
		Args:        os.Args[1:],
		Deadline:    *deadline,
		JournalPath: *jrnPath,
		ServeAddr:   *serveAt,
		Observer:    obs,
	}, func(env *runner.Env) error {
		stopProfiles, err := chameleon.StartProfiles(*cpuProf, *memProf, *trace)
		if err != nil {
			return err
		}
		err = run(env, obs, runFlags{
			in: *in, out: *out, k: *k, eps: *eps, method: *method,
			samples: *samples, seed: *seed, workers: *workers,
			samplingMode: *smpMode, targetRSE: *targetRSE, maxSamples: *maxSmp,
			binary: *binaryF, quiet: *quiet, stats: *stats,
			ckptPath: *ckptPath, ckptEvery: *ckptEvery, resumeAt: *resumeAt,
		})
		if pErr := stopProfiles(); err == nil {
			err = pErr
		}
		return err
	}))
}

type runFlags struct {
	in, out, method, stats string
	k, samples, workers    int
	samplingMode           string
	targetRSE              float64
	maxSamples             int
	eps                    float64
	seed                   uint64
	binary, quiet          bool
	ckptPath               string
	ckptEvery              int
	resumeAt               string
}

func run(env *runner.Env, obs *chameleon.Observer, f runFlags) error {
	var resume *chameleon.Checkpoint
	ckptPath := f.ckptPath
	if f.resumeAt != "" {
		var err error
		resume, err = chameleon.LoadCheckpoint(f.resumeAt)
		if err != nil {
			return err
		}
		if ckptPath == "" {
			// Keep checkpointing to the file being resumed from, so a run
			// interrupted twice stays resumable.
			ckptPath = f.resumeAt
		}
		obs.Log("resuming sigma-search", "checkpoint", f.resumeAt)
	}

	g, err := chameleon.LoadGraph(f.in)
	if err != nil {
		return err
	}
	obs.Log("loaded graph", "path", f.in, "nodes", g.NumNodes(), "edges", g.NumEdges())

	start := time.Now()
	res, err := chameleon.AnonymizeContext(env.Ctx, g, chameleon.Options{
		K:               f.k,
		Epsilon:         f.eps,
		Method:          chameleon.Method(f.method),
		Samples:         f.samples,
		Seed:            f.seed,
		Workers:         f.workers,
		SamplingMode:    f.samplingMode,
		TargetRSE:       f.targetRSE,
		MaxSamples:      f.maxSamples,
		Observer:        obs,
		CheckpointPath:  ckptPath,
		CheckpointEvery: f.ckptEvery,
		Resume:          resume,
	})
	if err != nil {
		// Deadline degradation: when the wall clock ran out but a feasible
		// obfuscation was already in hand, publish the best-so-far graph
		// and exit 0. SIGINT does not degrade — it checkpoints (when
		// configured) and exits 130, leaving the choice between resuming
		// and settling for less to the operator.
		if res != nil && res.Graph != nil && errors.Is(err, context.DeadlineExceeded) {
			if wErr := writeOutput(f, res); wErr != nil {
				return errors.Join(err, wErr)
			}
			fmt.Fprintf(os.Stderr,
				"chameleon: deadline reached; wrote best-so-far graph (eps~=%.4f sigma=%.4f, search incomplete)\n",
				res.EpsilonTilde, res.Sigma)
			return runner.DegradedError{Cause: err}
		}
		return err
	}
	elapsed := time.Since(start)

	if err := writeOutput(f, res); err != nil {
		return err
	}
	if !f.quiet {
		fmt.Fprintf(os.Stderr,
			"anonymized %d nodes / %d->%d edges with %s: k=%d eps~=%.4f sigma=%.4f (%v)\n",
			g.NumNodes(), g.NumEdges(), res.Graph.NumEdges(), res.Method,
			f.k, res.EpsilonTilde, res.Sigma, elapsed.Round(time.Millisecond))
		writePhaseBreakdown(res)
	}
	return writeStats(f.stats, obs)
}

// writeOutput publishes the result graph per the -out/-binary flags.
func writeOutput(f runFlags, res *chameleon.Result) error {
	if f.out == "" {
		return chameleon.WriteGraph(os.Stdout, res.Graph)
	}
	save := chameleon.SaveGraph
	if f.binary {
		save = chameleon.SaveGraphBinary
	}
	return save(f.out, res.Graph)
}

// writePhaseBreakdown reports where the run's time went: the precompute
// with its uniqueness and edge-relevance layers versus the two
// sigma-search phases, with the genObf effort behind each.
func writePhaseBreakdown(res *chameleon.Result) {
	t := res.Trace()
	if t == nil {
		return
	}
	rnd := func(s *chameleon.Trace) time.Duration { return s.Duration().Round(time.Millisecond) }
	// A probe best's full re-run has a genobf span but is no call.
	calls := func(s *chameleon.Trace) int {
		n := 0
		for _, c := range s.FindAll("genobf") {
			if rerun, _ := c.Attr("rerun"); rerun != true {
				n++
			}
		}
		return n
	}
	pre := t.Find("precompute")
	exp := t.Find("exponential-search")
	bis := t.Find("bisection")
	if pre == nil || exp == nil || bis == nil {
		return
	}
	layers := ""
	if u := pre.Find("uniqueness"); u != nil {
		d, _ := u.Attr("distinct")
		layers = fmt.Sprintf(" (uniqueness %v over %v distinct expected degrees", rnd(u), d)
		if r := pre.Find("edge-relevance"); r != nil {
			layers += fmt.Sprintf(", edge relevance %v", rnd(r))
		}
		layers += ")"
	}
	fmt.Fprintf(os.Stderr,
		"phases: precompute %v%s, sigma search %v (exponential %v in %d genobf calls, bisection %v in %d calls)\n",
		rnd(pre), layers, (exp.Duration() + bis.Duration()).Round(time.Millisecond),
		rnd(exp), calls(exp), rnd(bis), calls(bis))
}

// writeStats dumps the observer snapshot per the -stats flag contract: ""
// is off, "-" writes aligned text to stderr, anything else is a JSON file.
func writeStats(dest string, obs *chameleon.Observer) error {
	switch dest {
	case "":
		return nil
	case "-":
		return obs.WriteText(os.Stderr)
	default:
		f, err := os.Create(dest)
		if err != nil {
			return err
		}
		if err := obs.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
}
