// Command experiments reproduces the paper's evaluation: Table I, Table
// II, Figure 3 (dataset distributions), Figure 4 (Rep-An distortion vs the
// Chameleon lower bound) and Figures 8-11 (reliability, average degree,
// average distance and clustering preservation across methods and k), plus
// the two ablation studies (ERR estimator cost; ME-vs-unguided entropy
// gain).
//
// Usage:
//
//	experiments                  # full sweep (several minutes)
//	experiments -quick           # miniature datasets, seconds
//	experiments -run fig8        # one artifact: tableI tableII fig3 fig4
//	                             # fig8 fig9 fig10 fig11 ablations sweep
//	experiments -csv runs.csv    # also dump the raw grid
//	experiments -serve :9100     # live /metrics, /healthz, /runs, /debug/pprof
//	experiments -journal r.jsonl # append a replayable JSONL run journal
//
// Interruption: the first SIGINT/SIGTERM stops the sweep at the next cell
// boundary (a second forces immediate exit) and -deadline DUR does the
// same on a wall-clock budget; with -checkpoint FILE every completed
// sweep cell is saved atomically, so rerunning with the same flags skips
// the finished cells and recomputes only the rest (per-cell seeding keeps
// the merged results identical to an uninterrupted run).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"chameleon/cmd/internal/runner"
	"chameleon/internal/exp"
	"chameleon/internal/obs"
	"chameleon/internal/uncertain"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "miniature datasets and reduced sampling budgets")
		runSel   = flag.String("run", "all", "comma-separated artifacts: tableI,tableII,fig3,fig4,fig8,fig9,fig10,fig11,attack,knn,dp,centrality,timing,ablations,all")
		samples  = flag.Int("samples", 0, "override reliability sample budget")
		smpMode  = flag.String("sampling-mode", "independent", "world sampling strategy: independent | antithetic | stratified | coupled")
		tgtRSE   = flag.Float64("target-rse", 0, "adaptive stopping: sample until the relative standard error falls below this target (0 = fixed budget)")
		maxSmp   = flag.Int("max-samples", 0, "cap on adaptive sampling (0 = package default; requires -target-rse)")
		seed     = flag.Uint64("seed", 7, "random seed")
		csvPath  = flag.String("csv", "", "write the raw sweep grid as CSV")
		workers  = flag.Int("workers", 0, "parallelism of Monte Carlo sampling and GenObf attempts (0 = all cores)")
		verbose  = flag.Bool("v", false, "log structured per-cell progress to stderr")
		stats    = flag.String("stats", "", "dump the final metrics snapshot: a path writes JSON, '-' writes text to stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		trcPath  = flag.String("trace", "", "write a runtime execution trace to this file")
		serveAt  = flag.String("serve", "", "serve live telemetry (/metrics, /healthz, /runs, /debug/pprof) on this address for the duration of the sweep")
		jrnPath  = flag.String("journal", "", "append a JSONL run journal (begin, periodic snapshots, phase spans, final CI report) to this file")
		deadline = flag.Duration("deadline", 0, "bound the run's wall clock; the sweep stops at the next cell boundary (exit 124)")
		ckptPath = flag.String("checkpoint", "", "save completed sweep cells to this file (atomic writes); rerunning with the same flags resumes, recomputing only unfinished cells")
	)
	flag.Parse()

	var observer *obs.Observer
	if *stats != "" || *verbose || *serveAt != "" || *jrnPath != "" {
		observer = obs.NewObserver()
		if *verbose {
			observer.Logger = obs.NewLogger(os.Stderr)
		}
	}

	os.Exit(runner.Main(runner.Options{
		Command:     "experiments",
		Args:        os.Args[1:],
		Deadline:    *deadline,
		JournalPath: *jrnPath,
		ServeAddr:   *serveAt,
		Observer:    observer,
	}, func(env *runner.Env) error {
		mode, err := uncertain.ParseSamplingMode(*smpMode)
		if err != nil {
			return err
		}
		cfg := exp.Config{
			Quick: *quick, Samples: *samples, Seed: *seed,
			SamplingMode: mode, TargetRSE: *tgtRSE, MaxSamples: *maxSmp,
			Workers: *workers, Obs: observer, Ctx: env.Ctx,
		}
		if err := cfg.Check(exp.Methods); err != nil {
			return err
		}
		stopProfiles, err := obs.StartProfiles(*cpuProf, *memProf, *trcPath)
		if err != nil {
			return err
		}
		if *ckptPath != "" {
			cfg.Cells, err = exp.OpenCellStore(*ckptPath, cfg)
			if err != nil {
				return err
			}
			if n := cfg.Cells.Len(); n > 0 {
				fmt.Fprintf(os.Stderr, "experiments: resuming sweep, %d cells restored from %s\n", n, *ckptPath)
			}
		}
		err = run(cfg, *runSel, *csvPath, *stats, observer)
		if pErr := stopProfiles(); err == nil {
			err = pErr
		}
		return err
	}))
}

func run(cfg exp.Config, runSel, csvPath, stats string, observer *obs.Observer) error {
	want := map[string]bool{}
	for _, r := range strings.Split(runSel, ",") {
		want[strings.TrimSpace(r)] = true
	}
	all := want["all"]
	out := os.Stdout

	start := time.Now()
	if all || want["tableII"] {
		exp.WriteTableII(out)
		fmt.Fprintln(out)
	}
	if all || want["fig3"] {
		probs, degs, err := cfg.Fig3()
		if err != nil {
			return err
		}
		exp.WriteHistogram(out, "Figure 3a: edge probability distributions", probs)
		exp.WriteHistogram(out, "Figure 3b: degree distributions (log-spaced buckets)", degs)
		fmt.Fprintln(out)
	}
	if all || want["fig4"] {
		rows, err := cfg.Fig4()
		if err != nil {
			return err
		}
		exp.WriteFig4(out, rows)
		fmt.Fprintln(out)
	}

	needSweep := all || want["tableI"] || want["fig8"] || want["fig9"] || want["fig10"] || want["fig11"] || want["timing"] || want["sweep"]
	if needSweep {
		runs, bases, err := cfg.SweepAll(exp.Methods)
		if err != nil {
			return err
		}
		if all || want["tableI"] {
			cfg.WriteTableI(out, bases)
			fmt.Fprintln(out)
		}
		for _, fig := range []string{"fig8", "fig9", "fig10", "fig11"} {
			if all || want[fig] {
				if err := exp.WriteFigure(out, fig, runs); err != nil {
					return err
				}
				fmt.Fprintln(out)
			}
		}
		if all || want["timing"] {
			exp.WriteTiming(out, runs)
			fmt.Fprintln(out)
		}
		if csvPath != "" {
			f, err := os.Create(csvPath)
			if err != nil {
				return err
			}
			exp.WriteRunsCSV(f, runs)
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote raw grid to %s\n\n", csvPath)
		}
	}

	if all || want["attack"] {
		rows, err := cfg.AttackExperiment()
		if err != nil {
			return err
		}
		exp.WriteAttack(out, rows)
		fmt.Fprintln(out)
	}
	if all || want["centrality"] {
		rows, err := cfg.CentralityExperiment()
		if err != nil {
			return err
		}
		exp.WriteCentrality(out, rows)
		fmt.Fprintln(out)
	}
	if all || want["dp"] {
		rows, err := cfg.DPComparison()
		if err != nil {
			return err
		}
		exp.WriteDP(out, rows)
		fmt.Fprintln(out)
	}
	if all || want["knn"] {
		rows, err := cfg.KNNExperiment()
		if err != nil {
			return err
		}
		exp.WriteKNN(out, rows)
		fmt.Fprintln(out)
	}
	if all || want["ablations"] {
		if err := runAblations(cfg, out); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "total: %v\n", time.Since(start).Round(time.Millisecond))

	if err := writeStats(stats, observer); err != nil {
		return err
	}
	// The whole requested artifact set completed: a sweep checkpoint has
	// nothing left to resume, so clear it.
	return cfg.Finish()
}

// writeStats dumps the observer snapshot per the -stats flag contract: ""
// is off, "-" writes aligned text to stderr, anything else is a JSON file.
func writeStats(dest string, observer *obs.Observer) error {
	if dest == "" {
		return nil
	}
	if dest == "-" {
		return observer.WriteText(os.Stderr)
	}
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	if err := observer.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runAblations(cfg exp.Config, out *os.File) error {
	// ERR estimator cost on purpose-built small graphs: the naive
	// estimator of Lemma 2 is quadratic in |E| and exists only to show why
	// the Algorithm 2 reuse estimator matters.
	sizes := []int{100, 200, 400}
	samples := 100
	if cfg.Quick {
		sizes = []int{50, 100}
		samples = 30
	}
	var rows []exp.ERRCostRow
	for _, m := range sizes {
		g, err := exp.ERRCostGraph(m, cfg.Seed)
		if err != nil {
			return err
		}
		rows = append(rows, exp.ERRCost(g, samples, cfg.Seed, cfg.Workers))
	}
	exp.WriteERRCost(out, rows)
	fmt.Fprintln(out)

	d := cfg.Datasets()[0]
	g, err := cfg.BuildDataset(d)
	if err != nil {
		return err
	}
	gain := exp.EntropyGain(g, []float64{0.01, 0.05, 0.1, 0.2, 0.4}, cfg.Seed)
	exp.WriteEntropyGain(out, gain)
	fmt.Fprintln(out)

	eRows, err := cfg.ExtractionAblation()
	if err != nil {
		return err
	}
	exp.WriteExtraction(out, eRows)
	fmt.Fprintln(out)

	cRows, err := cfg.CSweepAblation(nil)
	if err != nil {
		return err
	}
	exp.WriteCSweep(out, cRows)
	fmt.Fprintln(out)

	budgets := []int{10, 100, 1000}
	reps := 10
	if cfg.Quick {
		budgets = []int{10, 100, 500}
		reps = 6
	}
	conv := exp.ConvergenceStudy(g, budgets, reps, cfg.Seed, cfg.Workers)
	exp.WriteConvergence(out, conv)
	fmt.Fprintln(out)

	epsRows, err := cfg.EpsilonSweep(nil)
	if err != nil {
		return err
	}
	exp.WriteEpsilonSweep(out, epsRows)
	fmt.Fprintln(out)
	return nil
}
