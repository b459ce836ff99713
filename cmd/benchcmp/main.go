// Command benchcmp compares two benchmark-artifact JSON files (the
// BENCH_obs.json / BENCH_reliability.json / BENCH_mc.json /
// BENCH_format.json schema: an array of {name, ns_per_op, allocs_per_op,
// iterations, samples_to_target_rse?, bytes_on_disk?} records) and fails
// when any benchmark present in both got slower than the allowed budget.
// With -emit it writes such a file instead, converting `go test -bench`
// output read from standard input (see parseBench).
//
// Usage:
//
//	benchcmp [-max-slowdown 25] [-skip-ns] baseline.json current.json
//	go test -bench . -benchmem | benchcmp -emit > BENCH_x.json
//
// Two quantities are gated against the same percentage budget: ns_per_op
// (unless -skip-ns) and, where present in both files, the
// samples_to_target_rse sample-efficiency metric — a variance-reduction
// regression shows up there long before it moves wall time. -skip-ns
// exists for artifacts like BENCH_mc.json whose gated quantity is the
// sample count: their wall time is dominated by the sample count itself,
// so gating both would double-count the noise.
//
// Exit status 1 means at least one regression beyond the budget;
// benchmarks present in only one file are reported but never fail the
// gate (they are additions or retirements, not regressions).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
)

type entry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int64   `json:"iterations"`
	// SamplesToTargetRSE is the Monte Carlo sample-efficiency metric of
	// the adaptive-sampling benchmarks: worlds needed to reach the target
	// relative standard error. Zero when the benchmark does not report it.
	SamplesToTargetRSE float64 `json:"samples_to_target_rse,omitempty"`
	// Load-harness extension (BENCH_load.json, written by ugload): tail
	// latency quantiles, throughput and error rate. P99NS is gated like
	// ns_per_op (even under -skip-ns — the whole point of the artifact
	// is its tail); the rest are informational.
	P50NS     int64   `json:"p50_ns,omitempty"`
	P99NS     int64   `json:"p99_ns,omitempty"`
	P999NS    int64   `json:"p999_ns,omitempty"`
	QPS       float64 `json:"qps,omitempty"`
	ErrorRate float64 `json:"error_rate,omitempty"`
	// Format-artifact extension (BENCH_format.json): encoded size of the
	// benchmark graph in that format. Size is deterministic, so unlike
	// wall time any growth beyond the budget is a real encoding
	// regression; it is gated even under -skip-ns.
	BytesOnDisk int64 `json:"bytes_on_disk,omitempty"`
}

func main() {
	maxSlowdown := flag.Float64("max-slowdown", 25, "fail when a gated metric grows more than this percentage")
	skipNs := flag.Bool("skip-ns", false, "do not gate ns_per_op (for sample-efficiency artifacts where wall time is a function of the gated sample count)")
	emit := flag.Bool("emit", false, "convert go test -bench output on stdin to a benchmark-artifact JSON file on stdout")
	flag.Parse()
	if *emit {
		es, err := parseBench(os.Stdin)
		if err == nil {
			err = writeEntries(os.Stdout, es)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcmp:", err)
			os.Exit(2)
		}
		return
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "benchcmp: want exactly two arguments: baseline.json current.json")
		flag.Usage()
		os.Exit(2)
	}
	base := load(flag.Arg(0))
	cur := load(flag.Arg(1))

	baseByName := map[string]entry{}
	for _, e := range base {
		baseByName[e.Name] = e
	}
	seen := map[string]bool{}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "BENCHMARK\tBASE ns/op\tNOW ns/op\tDELTA\tSAMPLES\t")
	regressions := 0
	for _, e := range cur {
		b, ok := baseByName[e.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t-\t%.0f\tnew\t%s\t\n", e.Name, e.NsPerOp, samplesCell(entry{}, e))
			continue
		}
		seen[e.Name] = true
		if b.NsPerOp <= 0 {
			fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t(zero baseline)\t%s\t\n", e.Name, b.NsPerOp, e.NsPerOp, samplesCell(b, e))
			continue
		}
		pct := 100 * (e.NsPerOp - b.NsPerOp) / b.NsPerOp
		mark := ""
		if !*skipNs && pct > *maxSlowdown {
			mark = "REGRESSION"
			regressions++
		}
		if b.SamplesToTargetRSE > 0 && e.SamplesToTargetRSE > 0 {
			if 100*(e.SamplesToTargetRSE-b.SamplesToTargetRSE)/b.SamplesToTargetRSE > *maxSlowdown {
				mark = "REGRESSION (samples)"
				regressions++
			}
		}
		if b.P99NS > 0 && e.P99NS > 0 {
			if 100*float64(e.P99NS-b.P99NS)/float64(b.P99NS) > *maxSlowdown {
				mark = "REGRESSION (p99)"
				regressions++
			}
		}
		if b.BytesOnDisk > 0 && e.BytesOnDisk > 0 {
			if 100*float64(e.BytesOnDisk-b.BytesOnDisk)/float64(b.BytesOnDisk) > *maxSlowdown {
				mark = "REGRESSION (bytes)"
				regressions++
			}
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%+.1f%%\t%s\t%s\n", e.Name, b.NsPerOp, e.NsPerOp, pct, samplesCell(b, e), mark)
	}
	for _, b := range base {
		if !seen[b.Name] {
			found := false
			for _, e := range cur {
				if e.Name == b.Name {
					found = true
					break
				}
			}
			if !found {
				fmt.Fprintf(tw, "%s\t%.0f\t-\tretired\t\t\n", b.Name, b.NsPerOp)
			}
		}
	}
	tw.Flush()

	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchcmp: %d benchmark(s) regressed more than %.0f%%\n", regressions, *maxSlowdown)
		os.Exit(1)
	}
}

// samplesCell renders the sample-efficiency column: "base->now" when both
// sides report the metric, the single value when only one does, empty
// otherwise.
func samplesCell(b, e entry) string {
	switch {
	case b.SamplesToTargetRSE > 0 && e.SamplesToTargetRSE > 0:
		return fmt.Sprintf("%.0f->%.0f", b.SamplesToTargetRSE, e.SamplesToTargetRSE)
	case e.SamplesToTargetRSE > 0:
		return fmt.Sprintf("%.0f", e.SamplesToTargetRSE)
	case b.SamplesToTargetRSE > 0:
		return fmt.Sprintf("%.0f->-", b.SamplesToTargetRSE)
	}
	return ""
}

func load(path string) []entry {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	var out []entry
	if err := json.Unmarshal(raw, &out); err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %s: %v\n", path, err)
		os.Exit(2)
	}
	return out
}
