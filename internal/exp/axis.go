package exp

import (
	"fmt"
	"io"
	"text/tabwriter"

	"chameleon/internal/core"
)

// AxisRow is one point of a one-axis ablation: RSME on the first dataset
// at a fixed k with one privacy knob scaled by a multiplier, and the
// noise and utility cost that knob setting buys.
type AxisRow struct {
	Dataset string
	X       float64 // the knob's value: the tolerance eps, or the multiplier c
	K       int
	Failed  bool
	Sigma   float64
	RelDisc float64
}

// sweepAxis is one knob of the one-axis ablations: which parameter the
// multiplier sets, at which k, under which seed offsets, and how the
// table prints.
type sweepAxis struct {
	title, xName    string
	xPrec           int // decimals of the knob column
	defaults        []float64
	kIndex          func(nKs int) int // index into PaperKs
	estOff, pairOff uint64            // discrepancy seed offsets
	// set applies the multiplier to p and returns the knob's value.
	set func(p *core.Params, mult float64) float64
}

// epsilonAxis is the tolerance sweep at the mid-sweep k. The paper fixes
// eps per dataset (Table I); this extension maps the other axis of the
// privacy knob: tighter tolerances leave fewer skippable outliers and
// force more noise.
var epsilonAxis = sweepAxis{
	title:    "Ablation: tolerance sweep (RSME at the mid-sweep k; tighter eps forces more noise)",
	xName:    "eps",
	xPrec:    4,
	defaults: []float64{0.5, 1, 2, 4},
	kIndex:   func(n int) int { return n / 2 },
	estOff:   51,
	pairOff:  52,
	set: func(p *core.Params, mult float64) float64 {
		if p.Epsilon *= mult; p.Epsilon >= 1 {
			p.Epsilon = 0.99
		}
		return p.Epsilon
	},
}

// cAxis is the candidate-budget sweep at the top-of-sweep k. Larger c
// admits more injection candidates: harder k values become feasible and
// less noise per edge is needed, at the cost of touching more vertex
// pairs.
var cAxis = sweepAxis{
	title:    "Ablation: candidate-set multiplier c (RSME at the top-of-sweep k)",
	xName:    "c",
	xPrec:    1,
	defaults: []float64{1.1, 1.5, 2.0, 3.0},
	kIndex:   func(n int) int { return n - 1 },
	estOff:   7,
	pairOff:  11,
	set: func(p *core.Params, mult float64) float64 {
		p.SizeMultiplier = mult
		return mult
	},
}

// EpsilonSweep runs RSME on the first dataset at the mid-sweep k for a
// range of tolerance multipliers (default 0.5, 1, 2, 4).
func (c Config) EpsilonSweep(multipliers []float64) ([]AxisRow, error) {
	return c.axisSweep(epsilonAxis, multipliers)
}

// CSweepAblation runs RSME on the first dataset at the top-of-sweep k for
// a range of candidate multipliers (default 1.1, 1.5, 2, 3).
func (c Config) CSweepAblation(multipliers []float64) ([]AxisRow, error) {
	return c.axisSweep(cAxis, multipliers)
}

// WriteEpsilonSweep renders the tolerance sweep table.
func WriteEpsilonSweep(w io.Writer, rows []AxisRow) { epsilonAxis.write(w, rows) }

// WriteCSweep renders the candidate-budget ablation table.
func WriteCSweep(w io.Writer, rows []AxisRow) { cAxis.write(w, rows) }

func (c Config) axisSweep(ax sweepAxis, multipliers []float64) ([]AxisRow, error) {
	c = c.withDefaults()
	if len(multipliers) == 0 {
		multipliers = ax.defaults
	}
	d := c.Datasets()[0]
	g, err := c.BuildDataset(d)
	if err != nil {
		return nil, err
	}
	k := d.KScale(c.PaperKs[ax.kIndex(len(c.PaperKs))])
	var rows []AxisRow
	for _, mult := range multipliers {
		params := c.searchParams(k, d.Epsilon, c.Seed)
		x := ax.set(&params, mult)
		res, fail, err := c.release(g, "RSME", params)
		if err != nil {
			return rows, err
		}
		row := AxisRow{Dataset: d.Name, X: x, K: k, Failed: fail != nil}
		if fail == nil {
			row.Sigma = res.Sigma
			if row.RelDisc, err = c.discrepancy(g, res.Graph, ax.estOff, ax.pairOff); err != nil {
				return rows, err
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func (ax sweepAxis) write(w io.Writer, rows []AxisRow) {
	fmt.Fprintln(w, ax.title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  dataset\t%s\tk\tsigma\trel discrepancy\n", ax.xName)
	for _, r := range rows {
		if r.Failed {
			fmt.Fprintf(tw, "  %s\t%.*f\t%d\tFAIL\t-\n", r.Dataset, ax.xPrec, r.X, r.K)
			continue
		}
		fmt.Fprintf(tw, "  %s\t%.*f\t%d\t%.3f\t%.4f\n", r.Dataset, ax.xPrec, r.X, r.K, r.Sigma, r.RelDisc)
	}
	tw.Flush()
}
