package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"chameleon/cmd/internal/runner"
)

var update = flag.Bool("update", false, "rewrite the golden files from current output")

// golden runs the tool with args and compares its stdout against the
// golden file, rewriting it under -update. The fixture journal uses fixed
// UTC timestamps, so the summary table (start, duration) and the -metric
// comparison are fully deterministic.
func golden(t *testing.T, goldenFile string, args ...string) {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	path := filepath.Join("testdata", goldenFile)
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from %s (re-run with -update to regenerate):\n--- got ---\n%s--- want ---\n%s", path, out.String(), want)
	}
}

// TestSummaryGolden pins the summary table: a completed run, a failed run
// whose error lands in the ERROR column, and a truncated run (begin with
// no end record) reported with status "truncated" and a "-" duration.
// The completed run's final snapshot carries a non-empty "histograms"
// object, the fixed-bucket family older journals recorded: those journals
// must keep loading, with the object ignored.
func TestSummaryGolden(t *testing.T) {
	golden(t, "summary.golden", filepath.Join("testdata", "runs.jsonl"))
}

// TestMetricQualityGolden pins -metric resolving a quality stream: the
// mean is annotated with its 95% CI and sample count, runs after the
// first get a delta, and the truncated run (no final snapshot) shows
// "(absent)".
func TestMetricQualityGolden(t *testing.T) {
	golden(t, "metric_quality.golden", "-metric", "mc.quality.err", filepath.Join("testdata", "runs.jsonl"))
}

// TestMetricCounterGolden pins -metric resolving a plain counter, with no
// CI annotation.
func TestMetricCounterGolden(t *testing.T) {
	golden(t, "metric_counter.golden", "-metric", "mc.worlds_sampled", filepath.Join("testdata", "runs.jsonl"))
}

// TestMetricLatencyGolden pins -metric resolving a latency instrument by
// stat suffix against a pair of ugload runs: query.latency.all.p99 reads
// the p99 of the HDR-backed latency histogram, annotated with the
// human-readable duration, and the second run gets a delta vs the first.
func TestMetricLatencyGolden(t *testing.T) {
	golden(t, "metric_latency.golden", "-metric", "query.latency.all.p99", filepath.Join("testdata", "ugload.jsonl"))
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
