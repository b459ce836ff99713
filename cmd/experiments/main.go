// Command experiments reproduces the paper's evaluation: Tables I and II,
// Figures 3, 4 and 8-11, the extension experiments and the ablations. The
// -run flag selects artifacts by name ("all", the default, prints every
// one, in this order; any other name is a usage error, exit 2):
//
//	tableII     Table II: the compared methods
//	fig3        Figure 3: edge-probability and degree distributions
//	fig4        Figure 4: Rep-An distortion vs the Chameleon lower bound
//	tableI      Table I: dataset characteristics and privacy parameters
//	fig8        Figure 8: reliability preservation per method and k
//	fig9        Figure 9: average-degree error per method and k
//	fig10       Figure 10: average-distance error per method and k
//	fig11       Figure 11: clustering-coefficient error per method and k
//	timing      median anonymize/evaluate wall clock per sweep cell
//	sweep       the method x k sweep alone (with -csv, its raw grid)
//	attack      degree-knowledge re-identification attack per method
//	centrality  expected-betweenness preservation per method
//	dp          RSME vs k-degree anonymity vs dK-1 differential privacy
//	knn         reliability k-NN preservation per method
//	ablations   ERR cost, ME entropy gain, extractors, c, convergence, eps
//
// fig4 through sweep read (dataset, method, k) cells from one sweep, run
// once over the methods they need: Figure 4 is the Rep-An and RSME cells
// Figures 8-11 plot. -quick swaps in miniature datasets (seconds, not
// minutes); -csv FILE dumps the sweep's raw grid; -serve ADDR and -journal
// FILE expose live telemetry and a replayable JSONL run journal.
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
	"io"
	"os"
	"slices"
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
		runSel   = flag.String("run", "all", runHelp())
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
		// Validate the selection before anything runs: a mistyped name must
		// not run nothing and then clear a resumable checkpoint.
		want, err := selectArtifacts(*runSel)
		if err != nil {
			return err
		}
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
		err = run(cfg, want, *csvPath, *stats, observer)
		if pErr := stopProfiles(); err == nil {
			err = pErr
		}
		return err
	}))
}

// artifact is one -run value: a table or figure of the evaluation.
type artifact struct {
	name, doc string
	cells     []string // methods whose sweep cells it reads; nil: none
	write     func(s *session) error
}

// artifacts is every -run value, in the order "all" prints them.
var artifacts = []artifact{
	{"tableII", "Table II: the compared methods", nil, func(s *session) error { exp.WriteTableII(s.out); return nil }},
	{"fig3", "Figure 3: edge-probability and degree distributions", nil, writeFig3},
	{"fig4", "Figure 4: Rep-An distortion vs the Chameleon lower bound", []string{"RSME", "Rep-An"}, func(s *session) error { exp.WriteFig4(s.out, s.runs, s.bases); return nil }},
	{"tableI", "Table I: dataset characteristics and privacy parameters", exp.Methods, func(s *session) error { s.cfg.WriteTableI(s.out, s.bases); return nil }},
	{"fig8", "Figure 8: reliability preservation per method and k", exp.Methods, figure("fig8")},
	{"fig9", "Figure 9: average-degree error per method and k", exp.Methods, figure("fig9")},
	{"fig10", "Figure 10: average-distance error per method and k", exp.Methods, figure("fig10")},
	{"fig11", "Figure 11: clustering-coefficient error per method and k", exp.Methods, figure("fig11")},
	{"timing", "median anonymize/evaluate wall clock per sweep cell", exp.Methods, func(s *session) error { exp.WriteTiming(s.out, s.runs); return nil }},
	{"sweep", "the method x k sweep alone (with -csv, its raw grid)", exp.Methods, writeGrid},
	{"attack", "degree-knowledge re-identification attack per method", nil, rows(exp.Config.AttackExperiment, exp.WriteAttack)},
	{"centrality", "expected-betweenness preservation per method", nil, rows(exp.Config.CentralityExperiment, exp.WriteCentrality)},
	{"dp", "RSME vs k-degree anonymity vs dK-1 differential privacy", nil, rows(exp.Config.DPComparison, exp.WriteDP)},
	{"knn", "reliability k-NN preservation per method", nil, rows(exp.Config.KNNExperiment, exp.WriteKNN)},
	{"ablations", "ERR cost, ME entropy gain, extractors, c, convergence, eps", nil, runAblations},
}

// session is one invocation: the configuration, where the tables go, and
// the one sweep grid every cell-reading artifact shares.
type session struct {
	cfg     exp.Config
	out     io.Writer
	csvPath string
	runs    []exp.Run
	bases   []exp.Baseline
}

func figure(id string) func(s *session) error {
	return func(s *session) error { return exp.WriteFigure(s.out, id, s.runs) }
}

// rows is an artifact that computes its own rows rather than reading the
// sweep's cells.
func rows[R any](compute func(exp.Config) ([]R, error), write func(io.Writer, []R)) func(s *session) error {
	return func(s *session) error {
		rs, err := compute(s.cfg)
		if err == nil {
			write(s.out, rs)
		}
		return err
	}
}

func writeFig3(s *session) error {
	probs, degs, err := s.cfg.Fig3()
	if err != nil {
		return err
	}
	exp.WriteHistogram(s.out, "Figure 3a: edge probability distributions", probs)
	exp.WriteHistogram(s.out, "Figure 3b: degree distributions (log-spaced buckets)", degs)
	return nil
}

// writeGrid writes the sweep's raw grid to the -csv file.
func writeGrid(s *session) error {
	f, err := os.Create(s.csvPath)
	if err != nil {
		return err
	}
	exp.WriteRunsCSV(f, s.runs)
	if err := f.Close(); err != nil {
		return err
	}
	_, err = fmt.Fprintf(s.out, "wrote raw grid to %s\n", s.csvPath)
	return err
}

func helpLine(a artifact) string { return fmt.Sprintf("%-11s %s", a.name, a.doc) }

// runHelp is the -run flag's help: the artifact table, one per line.
func runHelp() string {
	help := "comma-separated artifacts to print:"
	for _, a := range append(artifacts, artifact{name: "all", doc: "every artifact above, in this order"}) {
		help += "\n  " + helpLine(a)
	}
	return help
}

// selectArtifacts resolves a -run value to the names of the artifacts it
// selects. A name outside the artifact table is a usage error.
func selectArtifacts(runSel string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(runSel, ",") {
		name = strings.TrimSpace(name)
		switch {
		case name == "all":
			for _, a := range artifacts {
				want[a.name] = true
			}
		case slices.ContainsFunc(artifacts, func(a artifact) bool { return a.name == name }):
			want[name] = true
		default:
			return nil, runner.Usagef("unknown -run artifact %q (see -help)", name)
		}
	}
	return want, nil
}

// sweepMethods is the methods the selected artifacts read cells of, in
// exp.Methods order; nil when the selection runs no sweep.
func sweepMethods(want map[string]bool) []string {
	var methods []string
	for _, m := range exp.Methods {
		if slices.ContainsFunc(artifacts, func(a artifact) bool { return want[a.name] && slices.Contains(a.cells, m) }) {
			methods = append(methods, m)
		}
	}
	return methods
}

func run(cfg exp.Config, want map[string]bool, csvPath, stats string, observer *obs.Observer) error {
	s := &session{cfg: cfg, out: os.Stdout, csvPath: csvPath}
	start := time.Now()
	// One sweep serves every selected artifact that reads cells. The sweep
	// artifact prints only the -csv grid, of whichever artifact ran it.
	if methods := sweepMethods(want); methods != nil {
		var err error
		if s.runs, s.bases, err = cfg.SweepAll(methods); err != nil {
			return err
		}
		want["sweep"] = csvPath != ""
	}
	for _, a := range artifacts {
		if !want[a.name] {
			continue
		}
		if err := a.write(s); err != nil {
			return err
		}
		fmt.Fprintln(s.out)
	}
	fmt.Fprintf(s.out, "total: %v\n", time.Since(start).Round(time.Millisecond))

	if err := runner.WriteStats(stats, observer); err != nil {
		return err
	}
	// The whole requested artifact set completed: a sweep checkpoint has
	// nothing left to resume, so clear it.
	return cfg.Finish()
}

// runAblations prints the ablation studies, blank-line separated.
func runAblations(s *session) error {
	cfg, out := s.cfg, s.out
	// ERR estimator cost on purpose-built small graphs: the naive
	// estimator of Lemma 2 is quadratic in |E| and exists only to show why
	// the Algorithm 2 reuse estimator matters.
	sizes, samples := []int{100, 200, 400}, 100
	budgets, reps := []int{10, 100, 1000}, 10
	if cfg.Quick {
		sizes, samples = []int{50, 100}, 30
		budgets, reps = []int{10, 100, 500}, 6
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

	g, err := cfg.BuildDataset(cfg.Datasets()[0])
	if err != nil {
		return err
	}
	exp.WriteEntropyGain(out, exp.EntropyGain(g, []float64{0.01, 0.05, 0.1, 0.2, 0.4}, cfg.Seed))
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

	exp.WriteConvergence(out, exp.ConvergenceStudy(g, budgets, reps, cfg.Seed, cfg.Workers))
	fmt.Fprintln(out)

	epsRows, err := cfg.EpsilonSweep(nil)
	if err != nil {
		return err
	}
	exp.WriteEpsilonSweep(out, epsRows)
	return nil
}
