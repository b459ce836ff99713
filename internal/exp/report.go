package exp

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"text/tabwriter"
)

// WriteTableI prints the dataset-characteristics table (Table I) for the
// configured datasets, including both the paper's numbers and the scaled
// stand-ins actually built.
func (c Config) WriteTableI(w io.Writer, bases []Baseline) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Table I: dataset characteristics and privacy parameters")
	fmt.Fprintln(tw, "Graph\tNodes\tEdges\tEdgeProb\tTolerance\tPaperNodes\tPaperEdges\tPaperProb\tPaperTol")
	ds := c.Datasets()
	for i, b := range bases {
		d := ds[i]
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f\t%g\t%d\t%d\t%.2f\t%g\n",
			b.Dataset, b.Nodes, b.Edges, b.MeanProb, b.Epsilon,
			d.PaperNodes, d.PaperEdges, d.PaperMeanP, d.PaperEps)
	}
	tw.Flush()
}

// WriteTableII prints the compared-method capability matrix (Table II).
func WriteTableII(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Table II: summary of compared methods")
	fmt.Fprintln(tw, "Method\tUncertainty-aware\tReliability-oriented\tAnonymity-oriented\tSource")
	fmt.Fprintln(tw, "Rep-An\t-\t-\tyes\t[29]+[7]")
	fmt.Fprintln(tw, "RSME\tyes\tyes\tyes\tthis work")
	fmt.Fprintln(tw, "ME\tyes\t-\tyes\tthis work")
	fmt.Fprintln(tw, "RS\tyes\tyes\t-\tthis work")
	tw.Flush()
}

// Histogram is a labeled bucketed count series for Figure 3.
type Histogram struct {
	Dataset string
	Labels  []string
	Counts  []int
}

// WriteHistogram renders a histogram as an aligned text table.
func WriteHistogram(w io.Writer, title string, hs []Histogram) {
	fmt.Fprintln(w, title)
	for _, h := range hs {
		fmt.Fprintf(w, "  %s:\n", h.Dataset)
		max := 0
		for _, c := range h.Counts {
			if c > max {
				max = c
			}
		}
		for i, c := range h.Counts {
			bar := ""
			if max > 0 {
				for j := 0; j < 40*c/max; j++ {
					bar += "#"
				}
			}
			fmt.Fprintf(w, "    %-12s %8d %s\n", h.Labels[i], c, bar)
		}
	}
}

// figureColumn selects one metric of a Run.
type figureColumn struct {
	id     string
	title  string
	metric func(Run) float64
}

var figureColumns = []figureColumn{
	{"fig8", "Figure 8: reliability preservation (relative discrepancy, lower is better)", func(r Run) float64 { return r.RelDiscrepancy }},
	{"fig9", "Figure 9: average node degree (relative error, lower is better)", func(r Run) float64 { return r.AvgDegreeErr }},
	{"fig10", "Figure 10: average distance (relative error, lower is better)", func(r Run) float64 { return r.AvgDistanceErr }},
	{"fig11", "Figure 11: clustering coefficient (relative error, lower is better)", func(r Run) float64 { return r.ClusteringErr }},
}

// WriteFigure renders one figure's metric as a dataset-grouped table with
// one row per k and one column per method.
func WriteFigure(w io.Writer, id string, runs []Run) error {
	var col *figureColumn
	for i := range figureColumns {
		if figureColumns[i].id == id {
			col = &figureColumns[i]
		}
	}
	if col == nil {
		return fmt.Errorf("exp: unknown figure %q", id)
	}

	type cellKey struct {
		dataset string
		k       int
		method  string
	}
	cells := make(map[cellKey]Run)
	var datasets, methods []string
	var ks []int
	for _, r := range runs {
		cells[cellKey{r.Dataset, r.PaperK, r.Method}] = r
		datasets = appendNew(datasets, r.Dataset)
		ks = appendNew(ks, r.PaperK)
		methods = appendNew(methods, r.Method)
	}
	sort.Ints(ks)

	fmt.Fprintln(w, col.title)
	for _, d := range datasets {
		fmt.Fprintf(w, "  dataset %s:\n", d)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		header := "    k(paper)\tk(scaled)"
		for _, m := range methods {
			header += "\t" + m
		}
		fmt.Fprintln(tw, header)
		for _, k := range ks {
			kScaled := 0
			row := ""
			for _, m := range methods {
				r, ok := cells[cellKey{d, k, m}]
				if !ok {
					row += "\t-"
					continue
				}
				kScaled = r.K
				if r.Failed {
					row += "\tFAIL"
				} else {
					row += fmt.Sprintf("\t%.4f", col.metric(r))
				}
			}
			fmt.Fprintf(tw, "    %d\t%d%s\n", k, kScaled, row)
		}
		tw.Flush()
	}
	return nil
}

// WriteFig4 renders Figure 4 from the cells of a sweep that ran Rep-An
// and RSME: for each dataset and k, the structural distortion of Rep-An
// versus the Chameleon (RSME) lower bound, plus the distortion of the
// representative-extraction step alone, which the dataset's baseline
// carries. Datasets follow bases, ks the sweep's order.
func WriteFig4(w io.Writer, runs []Run, bases []Baseline) {
	type key struct {
		dataset, method string
		paperK          int
	}
	cells := map[key]Run{}
	for _, r := range runs {
		cells[key{r.Dataset, r.Method, r.PaperK}] = r
	}
	cell := func(r Run) string {
		if r.Failed {
			return "FAIL"
		}
		return fmt.Sprintf("%.4f", r.RelDiscrepancy)
	}
	fmt.Fprintln(w, "Figure 4: structural distortion (avg reliability discrepancy ratio) of Rep-An vs Chameleon lower bound")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  dataset\tk(paper)\tk(scaled)\tRep-An\tChameleon(lower bound)\textraction-only")
	for _, b := range bases {
		for _, rep := range runs {
			cham, ok := cells[key{b.Dataset, "RSME", rep.PaperK}]
			if rep.Dataset == b.Dataset && rep.Method == "Rep-An" && ok {
				fmt.Fprintf(tw, "  %s\t%d\t%d\t%s\t%s\t%.4f\n",
					b.Dataset, rep.PaperK, rep.K, cell(rep), cell(cham), b.ExtractionOnly)
			}
		}
	}
	tw.Flush()
}

// WriteRunsCSV emits the raw sweep grid as CSV for downstream plotting.
func WriteRunsCSV(w io.Writer, runs []Run) {
	fmt.Fprintln(w, "dataset,method,k_paper,k_scaled,epsilon_tilde,sigma,rel_discrepancy,avg_degree_err,avg_distance_err,clustering_err,eff_diameter_err,max_degree_err,failed,elapsed_ms,anon_ms,eval_ms")
	for _, r := range runs {
		fmt.Fprintf(w, "%s,%s,%d,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%t,%d,%d,%d\n",
			r.Dataset, r.Method, r.PaperK, r.K, r.EpsilonTilde, r.Sigma,
			r.RelDiscrepancy, r.AvgDegreeErr, r.AvgDistanceErr, r.ClusteringErr,
			r.EffDiameterErr, r.MaxDegreeErr, r.Failed, r.Elapsed.Milliseconds(),
			r.AnonElapsed.Milliseconds(), r.EvalElapsed.Milliseconds())
	}
}

// WriteTiming renders the efficiency view of a sweep: median wall-clock
// per (dataset, method) cell — the paper evaluates "effectiveness and
// efficiency". A cell covers the full pipeline: the sigma search with all
// GenObf trials plus the utility measurement of the published graph.
func WriteTiming(w io.Writer, runs []Run) {
	type key struct{ dataset, method string }
	times := map[key][]float64{}
	anonTimes := map[key][]float64{}
	evalTimes := map[key][]float64{}
	var datasets, methods []string
	for _, r := range runs {
		if r.Failed {
			continue
		}
		k := key{r.Dataset, r.Method}
		times[k] = append(times[k], float64(r.Elapsed.Milliseconds()))
		anonTimes[k] = append(anonTimes[k], float64(r.AnonElapsed.Milliseconds()))
		evalTimes[k] = append(evalTimes[k], float64(r.EvalElapsed.Milliseconds()))
		datasets = appendNew(datasets, r.Dataset)
		methods = appendNew(methods, r.Method)
	}
	median := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		sort.Float64s(xs)
		return xs[len(xs)/2]
	}
	fmt.Fprintln(w, "Efficiency: median wall-clock per sweep cell, total (anonymize/evaluate) ms")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := "  dataset"
	for _, m := range methods {
		header += "\t" + m
	}
	fmt.Fprintln(tw, header)
	for _, d := range datasets {
		row := "  " + d
		for _, m := range methods {
			k := key{d, m}
			row += fmt.Sprintf("\t%.0f (%.0f/%.0f)",
				median(times[k]), median(anonTimes[k]), median(evalTimes[k]))
		}
		fmt.Fprintln(tw, row)
	}
	tw.Flush()
}

// appendNew appends x unless xs holds it already: the first-seen order of
// a handful of table axes.
func appendNew[T comparable](xs []T, x T) []T {
	if slices.Contains(xs, x) {
		return xs
	}
	return append(xs, x)
}
