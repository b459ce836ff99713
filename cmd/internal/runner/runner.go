// Package runner is the shared lifecycle harness for the long-running
// CLIs (chameleon, experiments). It owns everything that must happen
// around the actual work so interrupted runs die cleanly instead of
// messily: signal handling (first SIGINT/SIGTERM cancels the run's
// context and lets the pipeline drain; a second forces immediate exit),
// an optional wall-clock deadline, the journal begin/end bracket
// (including the run's span timeline and an end record on panic, so a
// crash is distinguishable from a kill -9), the telemetry server's
// startup and graceful shutdown, and the mapping from the run's outcome
// to a conventional exit code:
//
//	0   success (including deadline-degraded runs that wrote a result)
//	1   error
//	2   usage error (UsageError)
//	124 deadline expired with nothing to show
//	130 interrupted by SIGINT (143 for SIGTERM)
package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"chameleon/internal/obs"
	"chameleon/internal/obs/expose"
	"chameleon/internal/obs/journal"
)

// UsageError marks an error as a command-line usage problem: Main (and
// ExitCode) map it to exit code 2, the convention the CLIs already used
// for flag validation failures.
type UsageError struct{ Err error }

func (e UsageError) Error() string { return e.Err.Error() }
func (e UsageError) Unwrap() error { return e.Err }

// Usagef builds a UsageError like fmt.Errorf.
func Usagef(format string, args ...any) error {
	return UsageError{Err: fmt.Errorf(format, args...)}
}

// DegradedError marks a run that was cut short (deadline, signal) but
// still wrote its best-so-far output: the journal records the run as
// "interrupted" with the cause, while the exit code stays 0 because the
// caller got a usable artifact.
type DegradedError struct{ Cause error }

func (e DegradedError) Error() string { return e.Cause.Error() }
func (e DegradedError) Unwrap() error { return e.Cause }

// Options configures one Main invocation.
type Options struct {
	// Command names the run in the journal and /runs (e.g. "chameleon");
	// it also prefixes error messages.
	Command string
	// Args are echoed into the journal's begin record.
	Args []string
	// Deadline, when positive, bounds the run's wall clock: the context
	// handed to the body expires after this long.
	Deadline time.Duration
	// JournalPath, when non-empty, appends a JSONL run journal there.
	JournalPath string
	// ServeAddr, when non-empty, serves live telemetry on that address
	// for the duration of the run.
	ServeAddr string
	// ExtraHandlers mounts additional endpoints (keyed by pattern, e.g.
	// "/query") on the telemetry server's mux, so a run can expose its
	// own HTTP plane on the same listener. Ignored without ServeAddr.
	ExtraHandlers map[string]http.Handler
	// Observer receives the run's metrics; may be nil (telemetry and the
	// journal's final snapshot then degrade gracefully).
	Observer *obs.Observer
	// Stderr is where errors and progress notes go (os.Stderr if nil).
	Stderr io.Writer

	// Test seams. signals, when non-nil, replaces the OS signal
	// subscription; exit, when non-nil, replaces os.Exit for the
	// second-signal force-quit path.
	signals chan os.Signal
	exit    func(int)
}

// Env is the harness state handed to the run body.
type Env struct {
	// Ctx is cancelled by the first SIGINT/SIGTERM and by the deadline.
	// The body must treat cancellation as a request to stop at the next
	// safe boundary and return (wrapping) Ctx.Err().
	Ctx context.Context
	// Obs echoes Options.Observer (possibly nil).
	Obs *obs.Observer
	// Journal is the open journal writer — nil-safe, so the body can
	// call WriteSnapshot etc. unconditionally.
	Journal *journal.Writer
	// Server is the running telemetry server (nil-safe).
	Server *expose.Server
	// RunID identifies the run in the journal and /runs ("" when neither
	// is enabled).
	RunID string
	// ServeAddr is the telemetry server's bound address ("" when -serve
	// is off). With a ":0" request this is where the port actually
	// landed — load harnesses dial it.
	ServeAddr string
}

// Main runs body inside the full lifecycle harness and returns the
// process exit code; callers end with os.Exit(runner.Main(...)). The
// journal's span records (one per Observer root, running spans with
// their elapsed time) and its end record are written on every path out —
// normal return, error, interrupt, deadline, even panic (the panic is
// re-raised after the records are flushed, so the crash still reaches
// the crash handler).
func Main(opts Options, body func(*Env) error) int {
	stderr := opts.Stderr
	if stderr == nil {
		stderr = io.Writer(os.Stderr)
	}
	report := func(err error) {
		fmt.Fprintf(stderr, "%s: %v\n", opts.Command, err)
	}

	var jw *journal.Writer
	var runID string
	if opts.JournalPath != "" {
		var err error
		jw, err = journal.Open(opts.JournalPath)
		if err != nil {
			report(err)
			return 1
		}
		runID, err = jw.Begin(opts.Command, opts.Args, time.Now())
		if err != nil {
			report(err)
			jw.Close()
			return 1
		}
	}

	// finish closes the run everywhere it is recorded: the /runs entry,
	// the telemetry server, and the journal (span timeline, end record,
	// close). It is the single epilogue for success, failure, interrupt
	// and panic.
	var srv *expose.Server
	finished := false
	finish := func(status, errMsg string) {
		if finished {
			return
		}
		finished = true
		srv.Poll() // final differ tick so the journal sees the end state
		srv.SetRunStatus(runID, status)
		if err := srv.Close(); err != nil {
			report(err)
		}
		at := time.Now()
		if jw != nil {
			for _, s := range opts.Observer.Spans() {
				if err := jw.WriteSpan(at, s.SnapshotTree()); err != nil {
					report(err)
				}
			}
		}
		var final obs.Snapshot
		if opts.Observer != nil {
			final = opts.Observer.Registry().Snapshot()
		}
		if err := jw.EndWithError(at, status, errMsg, final); err != nil {
			report(err)
		}
		if err := jw.Close(); err != nil {
			report(err)
		}
	}

	var boundAddr string
	if opts.ServeAddr != "" {
		exOpts := expose.Options{Handlers: opts.ExtraHandlers}
		if jw != nil {
			exOpts.OnSnapshot = func(at time.Time, s obs.Snapshot, rates map[string]float64) {
				jw.WriteSnapshot(at, s, rates)
			}
		}
		srv = expose.New(opts.Observer, exOpts)
		if runID == "" {
			runID = journal.NewRunID(time.Now())
		}
		srv.AddRun(expose.RunInfo{ID: runID, Command: opts.Command, Args: opts.Args, Start: time.Now(), Status: "running"})
		addr, err := srv.Start(opts.ServeAddr)
		if err != nil {
			report(err)
			finish("failed", err.Error())
			return 1
		}
		boundAddr = addr
		fmt.Fprintf(stderr, "%s: serving telemetry on http://%s/metrics\n", opts.Command, addr)
	}

	ctx, cancel := context.WithCancel(context.Background())
	if opts.Deadline > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), opts.Deadline)
	}
	defer cancel()

	sigc := opts.signals
	if sigc == nil {
		sigc = make(chan os.Signal, 2)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigc)
	}
	exit := opts.exit
	if exit == nil {
		exit = os.Exit
	}
	donec := make(chan struct{})
	defer close(donec)
	var caught atomic.Value // os.Signal, set before cancel()
	go func() {
		select {
		case s := <-sigc:
			caught.Store(s)
			fmt.Fprintf(stderr, "%s: %v — stopping at the next safe point (repeat to force quit)\n", opts.Command, s)
			cancel()
			select {
			case s2 := <-sigc:
				fmt.Fprintf(stderr, "%s: %v again — exiting immediately\n", opts.Command, s2)
				exit(signalExitCode(s2))
			case <-donec:
			}
		case <-donec:
		}
	}()

	// A panicking body still closes the run: the journal gets an end
	// record with status "failed" and the panic message, then the panic
	// is re-raised so the stack trace and crash semantics are preserved.
	defer func() {
		if r := recover(); r != nil {
			finish("failed", fmt.Sprintf("panic: %v", r))
			panic(r)
		}
	}()

	err := body(&Env{Ctx: ctx, Obs: opts.Observer, Journal: jw, Server: srv, RunID: runID, ServeAddr: boundAddr})

	sig, _ := caught.Load().(os.Signal)
	status, code := classify(err, sig)
	errMsg := ""
	if err != nil {
		errMsg = err.Error()
		report(err)
	}
	finish(status, errMsg)
	return code
}

// classify maps the body's outcome (and any signal caught along the way)
// to the run's journal status and exit code.
func classify(err error, sig os.Signal) (status string, code int) {
	var usage UsageError
	var degraded DegradedError
	switch {
	case err == nil:
		return "done", 0
	case errors.As(err, &degraded):
		return "interrupted", 0
	case errors.As(err, &usage):
		return "failed", 2
	case errors.Is(err, context.DeadlineExceeded):
		return "interrupted", 124
	case errors.Is(err, context.Canceled) && sig != nil:
		return "interrupted", signalExitCode(sig)
	default:
		return "failed", 1
	}
}

// ExitCode maps an error from a plain run() function to its exit code
// (0 ok, 2 usage, 1 otherwise) — for the small CLIs that don't need the
// full Main harness but share the usage-error convention.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.As(err, new(UsageError)):
		return 2
	default:
		return 1
	}
}

// signalExitCode follows the shell convention 128+signum (SIGINT: 130,
// SIGTERM: 143), defaulting to 130 for non-POSIX signal values.
func signalExitCode(s os.Signal) int {
	if ss, ok := s.(syscall.Signal); ok {
		return 128 + int(ss)
	}
	return 130
}
