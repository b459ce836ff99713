// Command tracestat reads JSONL run journals written by the -journal
// flag of chameleon, experiments, chameleond and ugload. It prints one
// row per run (command, status, wall clock, snapshot and span counts),
// then summarizes the runs' span timelines: per-phase time aggregation
// (count, total, self, min/max/mean) and the critical path through each
// root span. The journal keeps the timeline on every exit path, so an
// interrupted or deadline-cut run is summarized too (its still-running
// spans with the time they had when the run stopped).
//
// Usage:
//
//	tracestat runs.jsonl                    # run table + phase report
//	tracestat -top 5 runs.jsonl             # only the 5 largest phases
//	tracestat -metric mc.worlds_sampled a.jsonl b.jsonl
//	                                        # + final value per run, delta vs first
//	tracestat -full runs.jsonl              # + each run's final snapshot
//	tracestat -json runs.jsonl              # dump the replayed runs as JSON
//	tracestat -chrome trace.json runs.jsonl # + Chrome trace-event file for Perfetto
//
// -metric resolves against the final snapshot: counters and gauges by
// name, quality streams by their mean (with the 95% CI alongside), and
// latency instruments by a stat suffix (query.latency.all.p99).
//
// Self time is a span's duration minus the sum of its children's
// durations, clamped at zero for spans whose children overlap (parallel
// sweep cells). The critical path descends from each root into its
// longest child, repeatedly, so the chain printed is where an
// optimization pays off end to end.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"chameleon/cmd/internal/runner"
	"chameleon/internal/obs"
	"chameleon/internal/obs/journal"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		os.Exit(runner.ExitCode(err))
	}
}

// run is the whole tool behind a writer so the golden-file test can
// capture its exact output without a subprocess.
func run(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("tracestat", flag.ContinueOnError)
	var (
		top     = fs.Int("top", 0, "print only the N phases with the largest total time (0 = all)")
		jsonOut = fs.Bool("json", false, "dump the replayed runs as JSON instead of the report")
		metric  = fs.String("metric", "", "compare this metric's final value across runs")
		full    = fs.Bool("full", false, "print each run's final metrics snapshot")
		chrome  = fs.String("chrome", "", "also write the span timelines as Chrome trace-event JSON to this file (open in Perfetto)")
	)
	if err := fs.Parse(args); err != nil {
		return runner.Usagef("%v", err)
	}
	if fs.NArg() == 0 {
		return runner.Usagef("at least one journal file is required")
	}

	var runs []*journal.Run
	for _, path := range fs.Args() {
		rs, err := load(path)
		if err != nil {
			return err
		}
		runs = append(runs, rs...)
	}
	var spans []*obs.SpanSnapshot
	for _, r := range runs {
		spans = append(spans, r.Spans...)
	}
	if *chrome != "" {
		if err := writeChrome(*chrome, spans); err != nil {
			return err
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(runs)
	}

	if err := writeRunTable(out, runs); err != nil {
		return err
	}
	if *metric != "" {
		if err := writeMetric(out, runs, *metric); err != nil {
			return err
		}
	}
	if *full {
		if err := writeFinal(out, runs); err != nil {
			return err
		}
	}
	if len(spans) == 0 {
		return nil
	}
	fmt.Fprintln(out)
	if err := writePhases(out, spans, *top); err != nil {
		return err
	}
	fmt.Fprintln(out)
	return writeCriticalPaths(out, spans)
}

// load replays one journal file; a malformed one fails naming the file.
func load(path string) ([]*journal.Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs, err := journal.Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

type phaseStat struct {
	name        string
	count       int
	total, self time.Duration
	min, max    time.Duration
}

func collect(s *obs.SpanSnapshot, stats map[string]*phaseStat) {
	dur := time.Duration(s.DurationNS)
	st := stats[s.Name]
	if st == nil {
		st = &phaseStat{name: s.Name, min: dur}
		stats[s.Name] = st
	}
	st.count++
	st.total += dur
	st.min = min(st.min, dur)
	st.max = max(st.max, dur)
	st.self += selfTime(s)
	for _, c := range s.Children {
		collect(c, stats)
	}
}

// selfTime is s's duration minus its children's, clamped at zero.
func selfTime(s *obs.SpanSnapshot) time.Duration {
	self := s.DurationNS
	for _, c := range s.Children {
		self -= c.DurationNS
	}
	return time.Duration(max(0, self))
}

func writePhases(out io.Writer, roots []*obs.SpanSnapshot, top int) error {
	stats := map[string]*phaseStat{}
	for _, r := range roots {
		collect(r, stats)
	}
	rows := make([]*phaseStat, 0, len(stats))
	for _, st := range stats {
		rows = append(rows, st)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].total != rows[j].total {
			return rows[i].total > rows[j].total
		}
		return rows[i].name < rows[j].name
	})
	if top > 0 && len(rows) > top {
		rows = rows[:top]
	}

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "PHASE\tCOUNT\tTOTAL\tSELF\tMIN\tMAX\tMEAN")
	for _, st := range rows {
		mean := time.Duration(math.Round(float64(st.total) / float64(st.count)))
		fmt.Fprintf(tw, "%s\t%d\t%v\t%v\t%v\t%v\t%v\n",
			st.name, st.count, st.total, st.self, st.min, st.max, mean)
	}
	return tw.Flush()
}

// writeCriticalPaths prints one critical path per distinct root name, in
// order of first appearance: the path of the slowest root of that name
// (the first on a tie), with the number of such roots in the header when
// there is more than one — a sweep journal's many sweep.cell roots make
// one block, not one each.
func writeCriticalPaths(out io.Writer, roots []*obs.SpanSnapshot) error {
	type group struct {
		slowest *obs.SpanSnapshot
		n       int
	}
	var groups []*group
	byName := map[string]*group{}
	for _, r := range roots {
		g := byName[r.Name]
		if g == nil {
			g = &group{slowest: r}
			byName[r.Name] = g
			groups = append(groups, g)
		}
		g.n++
		if r.DurationNS > g.slowest.DurationNS {
			g.slowest = r
		}
	}
	for i, g := range groups {
		if i > 0 {
			fmt.Fprintln(out)
		}
		root := g.slowest
		if g.n > 1 {
			fmt.Fprintf(out, "critical path (%s, slowest of %d, %v):\n", root.Name, g.n, time.Duration(root.DurationNS))
		} else {
			fmt.Fprintf(out, "critical path (%s, %v):\n", root.Name, time.Duration(root.DurationNS))
		}
		tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		for s, depth := root, 0; s != nil; depth++ {
			var next *obs.SpanSnapshot
			for _, c := range s.Children {
				if next == nil || c.DurationNS > next.DurationNS {
					next = c
				}
			}
			pct := 0.0
			if root.DurationNS > 0 {
				pct = 100 * float64(s.DurationNS) / float64(root.DurationNS)
			}
			fmt.Fprintf(tw, "%s%s\t%v\tself %v\t%.1f%%\n",
				strings.Repeat("  ", depth), s.Name,
				time.Duration(s.DurationNS), selfTime(s), pct)
			s = next
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}
