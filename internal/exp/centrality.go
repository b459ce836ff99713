package exp

import (
	"fmt"
	"io"
	"text/tabwriter"

	"chameleon/internal/centrality"
	"chameleon/internal/core"
	"chameleon/internal/repan"
	"chameleon/internal/uncertain"
)

// CentralityRow reports how much of the expected-betweenness structure a
// method's release preserves: the overlap of the top-K most central
// vertices before and after.
type CentralityRow struct {
	Dataset string
	Method  string
	K       int // anonymization k
	Failed  bool
	Overlap float64 // top-20 expected-betweenness overlap, 1 = intact
}

// CentralityExperiment measures expected-betweenness preservation per
// method at the mid-sweep k. Brokerage structure is what community and
// influence analyses read off a graph; degree-preserving noise can still
// destroy it.
func (c Config) CentralityExperiment() ([]CentralityRow, error) {
	c = c.withDefaults()
	paperK := c.PaperKs[len(c.PaperKs)/2]
	const topK = 20
	opts := centrality.Options{Samples: 30, Seed: c.Seed + 31, Workers: c.Workers}
	var rows []CentralityRow
	for _, d := range c.Datasets() {
		if err := c.ctx().Err(); err != nil {
			return rows, err
		}
		g, err := c.BuildDataset(d)
		if err != nil {
			return nil, err
		}
		base := centrality.Expected(g, opts)
		k := d.KScale(paperK)
		for _, method := range Methods {
			params := c.searchParams(k, d.Epsilon, c.Seed^hashName(method))
			if params.Variant, err = core.ParseVariant(method); err != nil {
				return nil, err
			}
			res, err := core.AnonymizeContext(c.ctx(), g, params)
			if err != nil {
				if cerr := c.ctx().Err(); cerr != nil {
					return rows, cerr
				}
				rows = append(rows, CentralityRow{Dataset: d.Name, Method: method, K: k, Failed: true})
				continue
			}
			pub := centrality.Expected(res.Graph, opts)
			rows = append(rows, CentralityRow{
				Dataset: d.Name, Method: method, K: k,
				Overlap: centrality.TopKOverlap(base, pub, topK),
			})
		}
	}
	return rows, nil
}

// WriteCentrality renders the centrality-preservation table.
func WriteCentrality(w io.Writer, rows []CentralityRow) {
	fmt.Fprintln(w, "Downstream utility: expected-betweenness preservation (top-20 central-vertex overlap, higher is better)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  dataset\tmethod\tk\toverlap")
	for _, r := range rows {
		if r.Failed {
			fmt.Fprintf(tw, "  %s\t%s\t%d\tFAIL\n", r.Dataset, r.Method, r.K)
			continue
		}
		fmt.Fprintf(tw, "  %s\t%s\t%d\t%.2f\n", r.Dataset, r.Method, r.K, r.Overlap)
	}
	tw.Flush()
}

// ExtractionRow compares representative extractors on both objectives:
// the degree fit (ADR's target) and the betweenness fit (ABM's target).
type ExtractionRow struct {
	Dataset   string
	Extractor string
	DegreeFit float64 // sum_v |deg_rep - E[deg]| (lower is better)
	BetwFit   float64 // sum_v |bc_rep - E[bc]| (lower is better)
}

// ExtractionAblation contrasts the most-probable world with the ADR and
// ABM refinements on the first dataset — the [29] design space the
// Rep-An baseline builds on.
func (c Config) ExtractionAblation() ([]ExtractionRow, error) {
	c = c.withDefaults()
	d := c.Datasets()[0]
	g, err := c.BuildDataset(d)
	if err != nil {
		return nil, err
	}
	abmOpts := repan.ABMOptions{Samples: 20, Seed: c.Seed + 41, Workers: c.Workers}

	mp := uncertain.New(g.NumNodes())
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		if e.P >= 0.5 {
			mp.MustAddEdge(e.U, e.V, 1)
		}
	}
	variants := []struct {
		name string
		rep  *uncertain.Graph
	}{
		{"most-probable", mp},
		{"ADR", repan.Representative(g)},
		{"ABM", repan.RepresentativeABM(g, abmOpts)},
	}
	var rows []ExtractionRow
	for _, v := range variants {
		rows = append(rows, ExtractionRow{
			Dataset:   d.Name,
			Extractor: v.name,
			DegreeFit: repan.DegreeDiscrepancy(g, v.rep),
			BetwFit:   repan.BetweennessDiscrepancy(g, v.rep, abmOpts),
		})
	}
	return rows, nil
}

// WriteExtraction renders the extractor ablation table.
func WriteExtraction(w io.Writer, rows []ExtractionRow) {
	fmt.Fprintln(w, "Ablation: representative extractors ([29] design space), fit to the uncertain graph's expectations")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  dataset\textractor\tdegree fit (sum |err|)\tbetweenness fit (sum |err|)")
	for _, r := range rows {
		fmt.Fprintf(tw, "  %s\t%s\t%.1f\t%.1f\n", r.Dataset, r.Extractor, r.DegreeFit, r.BetwFit)
	}
	tw.Flush()
}
