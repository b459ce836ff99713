package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"chameleon/internal/obs"
	"chameleon/internal/obs/journal"
)

// readOneRun replays the journal at path and requires exactly one run.
func readOneRun(t *testing.T, path string) *journal.Run {
	t.Helper()
	runs, err := journal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("journal holds %d runs, want 1", len(runs))
	}
	return runs[0]
}

// spansBeforeEnd reads the journal at path line by line and requires its
// span records — at least one, naming root — to all precede the end
// record, the last line.
func spansBeforeEnd(t *testing.T, path, root string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var spans []string
	for i, line := range lines {
		var rec journal.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if (rec.Type == "end") != (i == len(lines)-1) {
			t.Fatalf("line %d of %d is a %q record, want the end record last and only there", i+1, len(lines), rec.Type)
		}
		if rec.Type == "span" {
			spans = append(spans, rec.Span.Name)
		}
	}
	if len(spans) == 0 || spans[0] != root {
		t.Fatalf("span records before the end record = %v, want the %s root", spans, root)
	}
}

func TestMainSuccess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	var sb strings.Builder
	o := obs.NewObserver()
	o.Registry().Counter("work.items").Add(5)
	code := Main(Options{Command: "t", JournalPath: path, Observer: o, Stderr: &sb}, func(env *Env) error {
		if env.Ctx.Err() != nil {
			t.Error("context cancelled before any signal")
		}
		if env.RunID == "" {
			t.Error("no run ID with a journal open")
		}
		return nil
	})
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, sb.String())
	}
	run := readOneRun(t, path)
	if run.Status != "done" || run.Truncated() || run.Error != "" {
		t.Errorf("run = status %q, truncated %v, error %q; want done, false, \"\"", run.Status, run.Truncated(), run.Error)
	}
	if run.Final == nil || run.Final.Counters["work.items"] != 5 {
		t.Errorf("final snapshot missing the observer's counters: %+v", run.Final)
	}
}

func TestMainError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	var sb strings.Builder
	boom := errors.New("boom")
	o := obs.NewObserver()
	code := Main(Options{Command: "t", JournalPath: path, Observer: o, Stderr: &sb}, func(*Env) error {
		o.StartSpan("load").End()
		return boom
	})
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	run := readOneRun(t, path)
	if run.Status != "failed" || run.Error != "boom" {
		t.Errorf("run = status %q error %q, want failed/boom", run.Status, run.Error)
	}
	if !strings.Contains(sb.String(), "t: boom") {
		t.Errorf("stderr missing the error: %q", sb.String())
	}
	spansBeforeEnd(t, path, "load")
}

func TestMainUsageError(t *testing.T) {
	code := Main(Options{Command: "t", Stderr: &strings.Builder{}}, func(*Env) error {
		return Usagef("-k must be >= 2")
	})
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

func TestFirstSignalCancelsContext(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	sigc := make(chan os.Signal, 2)
	var sb strings.Builder
	code := Main(Options{Command: "t", JournalPath: path, Stderr: &sb, signals: sigc}, func(env *Env) error {
		sigc <- os.Interrupt
		select {
		case <-env.Ctx.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("context not cancelled after SIGINT")
		}
		return fmt.Errorf("sweep interrupted: %w", env.Ctx.Err())
	})
	if code != 130 {
		t.Fatalf("exit code = %d, want 130", code)
	}
	run := readOneRun(t, path)
	if run.Status != "interrupted" {
		t.Errorf("journal status = %q, want interrupted", run.Status)
	}
	if !strings.Contains(run.Error, "interrupted") {
		t.Errorf("journal error = %q, want the interrupt cause", run.Error)
	}
	if !strings.Contains(sb.String(), "stopping at the next safe point") {
		t.Errorf("stderr missing the interrupt notice: %q", sb.String())
	}
}

func TestSecondSignalForcesExit(t *testing.T) {
	sigc := make(chan os.Signal, 2)
	forced := make(chan int, 1)
	code := Main(Options{
		Command: "t", Stderr: &strings.Builder{}, signals: sigc,
		exit: func(c int) { forced <- c },
	}, func(env *Env) error {
		sigc <- os.Interrupt
		<-env.Ctx.Done()
		sigc <- os.Interrupt
		select {
		case <-forced:
			forced <- 130 // repost for the assertion below
		case <-time.After(5 * time.Second):
			t.Fatal("second signal did not force an exit")
		}
		return env.Ctx.Err()
	})
	if code != 130 {
		t.Fatalf("exit code = %d, want 130", code)
	}
	if c := <-forced; c != 130 {
		t.Fatalf("forced exit code = %d, want 130", c)
	}
}

func TestSIGTERMExitCode(t *testing.T) {
	sigc := make(chan os.Signal, 2)
	code := Main(Options{Command: "t", Stderr: &strings.Builder{}, signals: sigc}, func(env *Env) error {
		sigc <- syscall.SIGTERM
		<-env.Ctx.Done()
		return env.Ctx.Err()
	})
	if code != 143 {
		t.Fatalf("exit code = %d, want 143 (128+SIGTERM)", code)
	}
}

func TestDeadlineWithoutResult(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	code := Main(Options{Command: "t", JournalPath: path, Deadline: 20 * time.Millisecond, Stderr: &strings.Builder{}}, func(env *Env) error {
		select {
		case <-env.Ctx.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("deadline never fired")
		}
		return env.Ctx.Err()
	})
	if code != 124 {
		t.Fatalf("exit code = %d, want 124", code)
	}
	if run := readOneRun(t, path); run.Status != "interrupted" {
		t.Errorf("journal status = %q, want interrupted", run.Status)
	}
}

func TestDegradedRunExitsZero(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	o := obs.NewObserver()
	code := Main(Options{Command: "t", JournalPath: path, Observer: o, Deadline: 20 * time.Millisecond, Stderr: &strings.Builder{}}, func(env *Env) error {
		o.StartSpan("anonymize").StartChild("genobf") // still open at the deadline
		<-env.Ctx.Done()
		// Pretend a best-so-far artifact was written before returning.
		return DegradedError{Cause: fmt.Errorf("deadline reached, wrote best-so-far result: %w", env.Ctx.Err())}
	})
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 for a degraded-but-productive run", code)
	}
	run := readOneRun(t, path)
	if run.Status != "interrupted" {
		t.Errorf("journal status = %q, want interrupted", run.Status)
	}
	if !strings.Contains(run.Error, "best-so-far") {
		t.Errorf("journal error = %q, want the degradation cause", run.Error)
	}
	spansBeforeEnd(t, path, "anonymize")
	if s := run.Spans[0]; !s.Running || s.DurationNS <= 0 || len(s.Children) != 1 || !s.Children[0].Running {
		t.Errorf("open spans journaled as %+v, want running with their elapsed time", s)
	}
}

func TestPanicStillWritesEndRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic was swallowed instead of re-raised")
			}
		}()
		o := obs.NewObserver()
		Main(Options{Command: "t", JournalPath: path, Observer: o, Stderr: &strings.Builder{}}, func(*Env) error {
			o.StartSpan("anonymize")
			panic("kaboom")
		})
	}()
	run := readOneRun(t, path)
	if run.Status != "failed" {
		t.Errorf("journal status = %q, want failed", run.Status)
	}
	if !strings.Contains(run.Error, "kaboom") {
		t.Errorf("journal error = %q, want the panic message", run.Error)
	}
	if run.Truncated() {
		t.Error("panicking run left a truncated journal (no end record)")
	}
	spansBeforeEnd(t, path, "anonymize")
}

func TestCancelledWithoutSignalIsFailure(t *testing.T) {
	// A context.Canceled that the harness did not cause (no signal) is a
	// plain failure, not an interrupt.
	code := Main(Options{Command: "t", Stderr: &strings.Builder{}}, func(*Env) error {
		return context.Canceled
	})
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
}

func TestTelemetryServerLifecycle(t *testing.T) {
	o := obs.NewObserver()
	o.Registry().Counter("c").Add(1)
	var sb strings.Builder
	code := Main(Options{Command: "t", ServeAddr: "127.0.0.1:0", Observer: o, Stderr: &sb}, func(env *Env) error {
		if env.Server == nil {
			t.Error("no telemetry server despite ServeAddr")
		}
		if env.RunID == "" {
			t.Error("no run ID despite telemetry being on")
		}
		return nil
	})
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, sb.String())
	}
	if !strings.Contains(sb.String(), "serving telemetry on http://") {
		t.Errorf("stderr missing the telemetry banner: %q", sb.String())
	}
}

func TestExitCode(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{Usagef("bad flag"), 2},
		{fmt.Errorf("wrapped: %w", Usagef("bad flag")), 2},
		{errors.New("boom"), 1},
	}
	for _, c := range cases {
		if got := ExitCode(c.err); got != c.want {
			t.Errorf("ExitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestWriteStats: "" writes nothing, a path gets the snapshot as JSON.
func TestWriteStats(t *testing.T) {
	if err := WriteStats("", nil); err != nil {
		t.Fatalf("WriteStats off: %v", err)
	}
	o := obs.NewObserver()
	o.Registry().Counter("runs").Inc()
	path := filepath.Join(t.TempDir(), "stats.json")
	if err := WriteStats(path, o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct{ Counters map[string]int64 }
	if err := json.Unmarshal(data, &snap); err != nil || snap.Counters["runs"] != 1 {
		t.Fatalf("stats file = %s (err %v), want the runs counter at 1", data, err)
	}
}
