package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chameleon/cmd/internal/runner"
	"chameleon/internal/obs"
	"chameleon/internal/obs/journal"
)

// report runs the tool with args and returns its stdout.
func report(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out.String()
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
}

// The report is the run table (plus the -metric and -full sections), then,
// when the journals hold spans, a blank line and the phase report. The
// goldens pin one section each: pinHead the run-table part, pinTail the
// phase report. The fixtures carry fixed UTC timestamps and span timings,
// so both are fully deterministic.

// pinHead requires the golden to be got's leading section, followed by
// nothing or by the phase report.
func pinHead(t *testing.T, got, goldenFile string) {
	t.Helper()
	want := readGolden(t, goldenFile)
	rest, ok := strings.CutPrefix(got, want)
	if !ok {
		t.Fatalf("output does not start with %s:\n--- got ---\n%s--- want ---\n%s", goldenFile, got, want)
	}
	if rest != "" && !strings.HasPrefix(rest, "\nPHASE ") {
		t.Errorf("after %s comes %q, want nothing or the phase report", goldenFile, rest)
	}
}

// pinTail requires the golden to be got's phase report, after a run
// table and a blank line.
func pinTail(t *testing.T, got, goldenFile string) {
	t.Helper()
	want := readGolden(t, goldenFile)
	head, ok := strings.CutSuffix(got, want)
	if !ok {
		t.Fatalf("output does not end with %s:\n--- got ---\n%s--- want ---\n%s", goldenFile, got, want)
	}
	if !strings.HasPrefix(head, "RUN ") || !strings.HasSuffix(head, "\n\n") {
		t.Errorf("before %s comes %q, want the run table and a blank line", goldenFile, head)
	}
}

// TestSummaryGolden pins the run table: a completed run, a failed run
// whose error lands in the ERROR column, and a truncated run (begin with
// no end record) reported with status "truncated" and a "-" duration.
// The completed run's final snapshot carries a non-empty "histograms"
// object, the fixed-bucket family older journals recorded: those journals
// must keep loading, with the object ignored. Its one span record follows
// as the phase report.
func TestSummaryGolden(t *testing.T) {
	got := report(t, filepath.Join("testdata", "replay", "runs.jsonl"))
	pinHead(t, got, filepath.Join("replay", "summary.golden"))
	if !strings.Contains(got, "\nfig4.sweep  1      3s") || !strings.Contains(got, "critical path (fig4.sweep, 3s):") {
		t.Errorf("phase report missing the fig4.sweep span:\n%s", got)
	}
}

// TestMetricQualityGolden pins -metric resolving a quality stream: the
// mean is annotated with its 95% CI and sample count, runs after the
// first get a delta, and the truncated run (no final snapshot) shows
// "(absent)".
func TestMetricQualityGolden(t *testing.T) {
	got := report(t, "-metric", "mc.quality.err", filepath.Join("testdata", "replay", "runs.jsonl"))
	pinHead(t, got, filepath.Join("replay", "metric_quality.golden"))
}

// TestMetricCounterGolden pins -metric resolving a plain counter, with no
// CI annotation.
func TestMetricCounterGolden(t *testing.T) {
	got := report(t, "-metric", "mc.worlds_sampled", filepath.Join("testdata", "replay", "runs.jsonl"))
	pinHead(t, got, filepath.Join("replay", "metric_counter.golden"))
}

// TestMetricLatencyGolden pins -metric resolving a latency instrument by
// stat suffix against a pair of ugload runs: query.latency.all.p99 reads
// the p99 of the HDR-backed latency histogram, annotated with the
// human-readable duration, and the second run gets a delta vs the first.
// The runs hold no spans, so the golden is the whole output.
func TestMetricLatencyGolden(t *testing.T) {
	got := report(t, "-metric", "query.latency.all.p99", filepath.Join("testdata", "replay", "ugload.jsonl"))
	if want := readGolden(t, filepath.Join("replay", "metric_latency.golden")); got != want {
		t.Errorf("output differs from metric_latency.golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestTraceGolden pins the phase report of one σ-search: the four genobf
// calls under the two search phases aggregate into one phase row, and the
// critical path walks anonymize -> bisection -> longest genobf.
func TestTraceGolden(t *testing.T) {
	pinTail(t, report(t, filepath.Join("testdata", "search.jsonl")), "trace.golden")
}

// TestJournalGolden pins span records written before they carried an
// absolute start: they rehydrate with parent-relative StartNS, and each
// of the two recorded roots gets its own critical path.
func TestJournalGolden(t *testing.T) {
	pinTail(t, report(t, filepath.Join("testdata", "runs.jsonl")), "journal.golden")
}

// TestTopGolden pins -top trimming the phase table to the N largest
// totals without touching the critical path.
func TestTopGolden(t *testing.T) {
	pinTail(t, report(t, "-top", "2", filepath.Join("testdata", "search.jsonl")), "top.golden")
}

// TestCriticalPathPerRootName: a sweep journal's many roots of one name
// make one critical-path block, the slowest root's, with their count in
// the header; a root with a name of its own keeps the plain header.
func TestCriticalPathPerRootName(t *testing.T) {
	start := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	var roots []*obs.SpanSnapshot
	for i := 0; i < 60; i++ {
		d := int64((i*37)%60+1) * int64(time.Millisecond)
		roots = append(roots, &obs.SpanSnapshot{
			Name: "sweep.cell", Start: start, DurationNS: d,
			Children: []*obs.SpanSnapshot{{Name: "anonymize", Start: start, DurationNS: d / 2}},
		})
	}
	roots = append(roots, &obs.SpanSnapshot{Name: "fig8", Start: start, DurationNS: int64(2 * time.Second)})
	got := report(t, writeSnapshots(t, roots...))
	if n := strings.Count(got, "critical path ("); n != 2 {
		t.Errorf("%d critical-path blocks, want 2 (one per root name):\n%s", n, got)
	}
	// The slowest cell (i == 47, (47*37)%60 == 59) runs 60ms, its child 30ms.
	for _, want := range []string{
		"critical path (sweep.cell, slowest of 60, 60ms):\nsweep.cell   60ms  self 30ms  100.0%\n  anonymize  30ms  self 30ms  50.0%\n",
		"critical path (fig8, 2s):\nfig8  2s  self 2s  100.0%\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report lacks %q:\n%s", want, got)
		}
	}
}

// TestRoundTripFromObserver closes the loop from live spans to both
// outputs: an observer's span tree is journaled the way the runner does
// it, and tracestat summarizes it and converts it for Perfetto.
func TestRoundTripFromObserver(t *testing.T) {
	o := obs.NewObserver()
	root := o.StartSpan("anonymize")
	pre := root.StartChild("precompute")
	pre.End()
	bis := root.StartChild("bisection")
	for i := 0; i < 3; i++ {
		g := bis.StartChild("genobf")
		g.End()
	}
	bis.End()
	root.End()

	path := writeJournal(t, o.Spans()...)
	chromePath := filepath.Join(t.TempDir(), "trace.json")
	got := report(t, "-chrome", chromePath, path)
	for _, want := range []string{"RUN", "PHASE", "anonymize", "precompute", "bisection", "critical path (anonymize"} {
		if !strings.Contains(got, want) {
			t.Errorf("round-trip output missing %q:\n%s", want, got)
		}
	}
	// The three genobf calls must aggregate into a single phase row.
	for _, line := range strings.Split(got, "\n") {
		if !strings.HasPrefix(line, "genobf") {
			continue
		}
		if f := strings.Fields(line); len(f) < 2 || f[1] != "3" {
			t.Errorf("genobf row count = %v, want 3:\n%s", f, got)
		}
		break
	}
	// One X event per span: anonymize, precompute, bisection, 3 genobf.
	if n := countX(t, readChrome(t, chromePath)); n != 6 {
		t.Errorf("chrome trace holds %d X events, want 6", n)
	}
}

// TestJSONDump covers -json: the replayed runs, spans included, and no
// text report.
func TestJSONDump(t *testing.T) {
	got := report(t, "-json", filepath.Join("testdata", "runs.jsonl"))
	var runs []*journal.Run
	if err := json.Unmarshal([]byte(got), &runs); err != nil {
		t.Fatalf("-json output does not decode: %v\n%s", err, got)
	}
	if len(runs) != 1 || len(runs[0].Spans) != 2 || runs[0].Spans[0].Name != "anonymize" {
		t.Fatalf("-json runs = %+v, want one run with the anonymize and sweep spans", runs)
	}
}

func TestNoArgsIsUsageError(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, nil)
	var ue runner.UsageError
	if !errors.As(err, &ue) {
		t.Fatalf("run with no args: err = %v, want a usage error", err)
	}
	if runner.ExitCode(err) != 2 {
		t.Fatalf("ExitCode = %d, want 2", runner.ExitCode(err))
	}
}

func TestMissingFileFails(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{filepath.Join(t.TempDir(), "absent.jsonl")}); err == nil {
		t.Fatal("run on a missing journal succeeded")
	}
}

// TestMetricNoArgsIsUsageError: -metric names a metric but no journal, so
// there are no runs to compare; that is a usage error, exit code 2.
func TestMetricNoArgsIsUsageError(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, []string{"-metric", "mc.quality.err"})
	var ue runner.UsageError
	if !errors.As(err, &ue) {
		t.Fatalf("run -metric with no journal: err = %v, want a usage error", err)
	}
	if runner.ExitCode(err) != 2 {
		t.Fatalf("ExitCode = %d, want 2", runner.ExitCode(err))
	}
}

// TestMetricMissingFileFails: a missing journal fails the -metric
// comparison before any output, naming the file.
func TestMetricMissingFileFails(t *testing.T) {
	var out bytes.Buffer
	path := filepath.Join(t.TempDir(), "absent.jsonl")
	err := run(&out, []string{"-metric", "mc.quality.err", path})
	if err == nil {
		t.Fatal("run -metric on a missing journal succeeded")
	}
	if !strings.Contains(err.Error(), "absent.jsonl") {
		t.Errorf("error does not name the missing file: %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("run -metric on a missing journal wrote output:\n%s", out.String())
	}
}

// TestMalformedInputFails: a file that is not journal JSONL must error,
// naming the file.
func TestMalformedInputFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(path, []byte("not json at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run(&out, []string{path})
	if err == nil {
		t.Fatal("run on garbage input succeeded")
	}
	if !strings.Contains(err.Error(), "garbage.json") {
		t.Errorf("error does not name the offending file: %v", err)
	}
}

// writeJournal journals one run holding the given span roots, the way the
// runner does at the end of a run, and returns the file's path.
func writeJournal(t *testing.T, roots ...*obs.Span) string {
	t.Helper()
	snaps := make([]*obs.SpanSnapshot, len(roots))
	for i, r := range roots {
		snaps[i] = r.SnapshotTree()
	}
	return writeSnapshots(t, snaps...)
}

// writeSnapshots is writeJournal for span trees given as snapshots, so a
// test can fix their timings.
func writeSnapshots(t *testing.T, roots ...*obs.SpanSnapshot) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	w, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Begin("chameleon", nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	for _, r := range roots {
		if err := w.WriteSpan(time.Now(), r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.End(time.Now(), "done", obs.Snapshot{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}
