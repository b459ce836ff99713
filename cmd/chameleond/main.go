// Command chameleond is the anonymization job daemon: a long-running
// service that accepts (k, ε)-obfuscation jobs over HTTP, runs them
// through the same σ-search as the chameleon CLI, and keeps every job
// durable in a spool directory so a crash or restart never loses work.
//
// Usage:
//
//	chameleond -serve :8080 -spool /var/spool/chameleon
//
// The job API mounts next to the telemetry endpoints on one listener:
//
//	POST   /jobs                  submit a job (JSON spec naming a
//	                              server-side graph_path, or multipart
//	                              "spec" + "graph" upload) → 202 + job ID
//	GET    /jobs                  list all jobs
//	GET    /jobs/{id}             status with live σ-search progress/ETA
//	DELETE /jobs/{id}             cancel
//	GET    /jobs/{id}/result      the anonymized graph (v2 binary)
//	GET    /jobs/{id}/certificate independent privacy re-verification
//	GET    /metrics               Prometheus text (jobs.* series included)
//
// Durability: every job's input graph, state record and σ-search
// checkpoints live under the spool; a daemon killed mid-search (even
// SIGKILL) and restarted on the same spool re-enqueues its in-flight
// jobs and resumes them from the last checkpoint, bit-identical to an
// uninterrupted run. SIGINT/SIGTERM shut down gracefully: running
// searches checkpoint at their next safe point and park for the next
// daemon life.
//
// Admission control: -max-jobs bounds concurrency, -queue the waiting
// line; a submission beyond either (or beyond the -max-pending-seconds
// worker-seconds budget) is rejected with 429 and a Retry-After hint
// instead of being silently queued forever.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	"chameleon"
	"chameleon/cmd/internal/runner"
	"chameleon/internal/jobs"
	"chameleon/internal/query"
	"chameleon/internal/uncertain"
)

func main() {
	var (
		serveAt   = flag.String("serve", ":8080", "address for the combined job API + telemetry listener")
		spool     = flag.String("spool", "", "spool directory for durable job state (required)")
		maxJobs   = flag.Int("max-jobs", 2, "jobs anonymizing concurrently")
		queueLen  = flag.Int("queue", 16, "admission queue depth; submissions beyond it get 429")
		maxPend   = flag.Float64("max-pending-seconds", 0, "reject submissions while estimated pending worker-seconds exceed this budget (0 = queue-depth gate only)")
		wPerJob   = flag.Int("workers-per-job", 0, "parallelism per job of Monte Carlo sampling and GenObf attempts (0 = GOMAXPROCS / max-jobs)")
		ckptEvery = flag.Int("checkpoint-every", 1, "σ-search checkpoint cadence in genobf calls (crash-recovery granularity; -1 = interrupt-only)")
		maxUpload = flag.Int64("max-upload", 0, "submission body size limit in bytes (0 = 256 MiB)")
		queryPath = flag.String("query", "", "also serve /query over this graph file")
		querySmp  = flag.Int("query-samples", 200, "Monte Carlo budget for /query estimators")
		querySeed = flag.Uint64("query-seed", 1, "seed for /query estimators")
		jrnPath   = flag.String("journal", "", "append a JSONL run journal to this file")
		verbose   = flag.Bool("v", false, "log structured progress to stderr")
	)
	flag.Parse()
	if *spool == "" {
		fmt.Fprintln(os.Stderr, "chameleond: -spool is required")
		flag.Usage()
		os.Exit(2)
	}
	if *serveAt == "" {
		fmt.Fprintln(os.Stderr, "chameleond: -serve is required")
		flag.Usage()
		os.Exit(2)
	}

	o := chameleon.NewObserver()
	if *verbose {
		o.Logger = chameleon.NewLogger(os.Stderr)
	}

	store, err := jobs.NewStore(*spool)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chameleond:", err)
		os.Exit(1)
	}
	mgr := jobs.NewManager(jobs.Config{
		Store:             store,
		MaxConcurrent:     *maxJobs,
		QueueDepth:        *queueLen,
		MaxPendingSeconds: *maxPend,
		WorkersPerJob:     *wPerJob,
		CheckpointEvery:   *ckptEvery,
		Obs:               o,
	})
	api := jobs.NewAPI(mgr)
	api.MaxUploadBytes = *maxUpload

	// The jobs subtree needs both patterns on the expose mux: "/jobs"
	// matches the collection, "/jobs/" the per-job paths. The API's own
	// mux routes methods and IDs from there.
	handlers := map[string]http.Handler{"/jobs": api, "/jobs/": api}
	if *queryPath != "" {
		qg, err := uncertain.LoadFile(*queryPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chameleond:", err)
			os.Exit(1)
		}
		eng := query.New(qg, query.Options{Samples: *querySmp, Seed: *querySeed, Obs: o})
		handlers["/query"] = eng.Handler()
	}

	os.Exit(runner.Main(runner.Options{
		Command:       "chameleond",
		Args:          os.Args[1:],
		JournalPath:   *jrnPath,
		ServeAddr:     *serveAt,
		Observer:      o,
		ExtraHandlers: handlers,
	}, func(env *runner.Env) error {
		defer store.Close()
		recovered, err := mgr.Start(env.Ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "chameleond: spool %s ready, %d job(s) recovered; job API on http://%s/jobs\n",
			store.Dir(), recovered, env.ServeAddr)

		// The daemon's work happens on the listener and the worker pool;
		// the body just waits for shutdown, then drains.
		<-env.Ctx.Done()
		mgr.Wait()
		fmt.Fprintln(os.Stderr, "chameleond: workers drained; in-flight jobs parked for recovery")
		// A signalled shutdown is the daemon's normal exit: report
		// "interrupted" in the journal but exit 0 — the spool holds
		// everything needed to pick the work back up.
		return runner.DegradedError{Cause: env.Ctx.Err()}
	}))
}
