package main

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"chameleon/internal/obs/journal"
)

// writeRunTable prints one row per run: identity, outcome, wall clock and
// how many snapshot and span records it left.
func writeRunTable(out io.Writer, runs []*journal.Run) error {
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "RUN\tCOMMAND\tSTATUS\tSTART\tDURATION\tSNAPSHOTS\tSPANS\tERROR")
	for _, run := range runs {
		dur := "-"
		if !run.End.IsZero() && !run.Start.IsZero() {
			dur = run.End.Sub(run.Start).Round(time.Millisecond).String()
		}
		status := run.Status
		if run.Truncated() {
			// No end record at all: the process died without flushing one
			// (crash, kill -9) or is still in flight. Distinct from
			// "interrupted", which means the handler got to say goodbye.
			status = "truncated"
		}
		errCol := "-"
		if run.Error != "" {
			errCol = run.Error
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%d\t%d\t%s\n",
			run.ID, run.Command, status, run.Start.Format(time.RFC3339), dur,
			len(run.Snapshots), len(run.Spans), errCol)
	}
	return tw.Flush()
}

// writeMetric compares one metric's final value across runs, with each
// run's delta against the first run that has it.
func writeMetric(out io.Writer, runs []*journal.Run, metric string) error {
	fmt.Fprintf(out, "\nfinal %s per run:\n", metric)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	var base float64
	haveBase := false
	for _, run := range runs {
		v, detail, ok := lookupMetric(run, metric)
		if !ok {
			fmt.Fprintf(tw, "%s\t(absent)\t\n", run.ID)
			continue
		}
		delta := ""
		if haveBase && base != 0 {
			delta = fmt.Sprintf("%+.2f%% vs first", 100*(v-base)/base)
		} else if !haveBase {
			base, haveBase = v, true
		}
		fmt.Fprintf(tw, "%s\t%g%s\t%s\n", run.ID, v, detail, delta)
	}
	return tw.Flush()
}

// writeFinal prints each run's final metrics snapshot.
func writeFinal(out io.Writer, runs []*journal.Run) error {
	for _, run := range runs {
		fmt.Fprintf(out, "\n=== %s (%s, %s) ===\n", run.ID, run.Command, run.Status)
		if run.Error != "" {
			fmt.Fprintf(out, "stopped by: %s\n", run.Error)
		}
		if run.Final == nil {
			fmt.Fprintln(out, "(no end record: run truncated or still in flight)")
			continue
		}
		if err := run.Final.WriteText(out); err != nil {
			return err
		}
	}
	return nil
}

// lookupMetric resolves a dotted metric name against a run's final
// snapshot: counter, gauge, quality-stream mean (annotated with its
// 95% CI), then latency instruments via a stat suffix —
// "query.latency.all.p99" reads the p99 of the "query.latency.all"
// latency histogram (suffixes: p50 p90 p99 p999 min max count mean;
// nanosecond values are annotated with the human-readable duration).
func lookupMetric(run *journal.Run, name string) (value float64, detail string, ok bool) {
	if run.Final == nil {
		return 0, "", false
	}
	if v, ok := run.Final.Counters[name]; ok {
		return float64(v), "", true
	}
	if v, ok := run.Final.Gauges[name]; ok {
		return v, "", true
	}
	if q, ok := run.Final.Quality[name]; ok {
		return q.Mean, fmt.Sprintf(" (ci95 [%.6g, %.6g], n=%d)", q.CI95Lo, q.CI95Hi, q.Count), true
	}
	if i := strings.LastIndex(name, "."); i > 0 {
		if l, ok := run.Final.Latencies[name[:i]]; ok {
			ns := func(v int64) (float64, string, bool) {
				return float64(v), fmt.Sprintf(" (%v)", time.Duration(v)), true
			}
			switch name[i+1:] {
			case "p50":
				return ns(l.P50NS)
			case "p90":
				return ns(l.P90NS)
			case "p99":
				return ns(l.P99NS)
			case "p999":
				return ns(l.P999NS)
			case "min":
				return ns(l.MinNS)
			case "max":
				return ns(l.MaxNS)
			case "mean":
				return ns(int64(l.Mean()))
			case "count":
				return float64(l.Count), "", true
			}
		}
	}
	return 0, "", false
}
