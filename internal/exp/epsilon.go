package exp

import (
	"fmt"
	"io"
	"text/tabwriter"

	"chameleon/internal/core"
	"chameleon/internal/reliability"
)

// EpsilonRow is one point of the tolerance sweep: the noise/utility cost
// of tightening or loosening eps at a fixed obfuscation level k.
type EpsilonRow struct {
	Dataset string
	Epsilon float64
	K       int
	Failed  bool
	Sigma   float64
	RelDisc float64
}

// EpsilonSweep runs RSME on the first dataset at the mid-sweep k for a
// range of tolerance multipliers. The paper fixes eps per dataset
// (Table I); this extension maps the other axis of the privacy knob:
// tighter tolerances leave fewer skippable outliers and force more noise.
func (c Config) EpsilonSweep(multipliers []float64) ([]EpsilonRow, error) {
	c = c.withDefaults()
	if len(multipliers) == 0 {
		multipliers = []float64{0.5, 1, 2, 4}
	}
	d := c.Datasets()[0]
	g, err := c.BuildDataset(d)
	if err != nil {
		return nil, err
	}
	paperK := c.PaperKs[len(c.PaperKs)/2]
	k := d.KScale(paperK)
	est := c.estimator(0, 51)
	var rows []EpsilonRow
	for _, mult := range multipliers {
		if err := c.ctx().Err(); err != nil {
			return rows, err
		}
		eps := d.Epsilon * mult
		if eps >= 1 {
			eps = 0.99
		}
		params := c.searchParams(k, eps, c.Seed)
		res, err := core.AnonymizeContext(c.ctx(), g, params)
		if err != nil {
			if cerr := c.ctx().Err(); cerr != nil {
				return rows, cerr
			}
			rows = append(rows, EpsilonRow{Dataset: d.Name, Epsilon: eps, K: k, Failed: true})
			continue
		}
		disc, err := est.RelativeDiscrepancy(g, res.Graph, reliability.PairSample{Pairs: c.Pairs, Seed: c.Seed + 52})
		if err == nil {
			err = c.ctx().Err()
		}
		if err != nil {
			return rows, err
		}
		rows = append(rows, EpsilonRow{
			Dataset: d.Name, Epsilon: eps, K: k, Sigma: res.Sigma, RelDisc: disc,
		})
	}
	return rows, nil
}

// WriteEpsilonSweep renders the tolerance sweep table.
func WriteEpsilonSweep(w io.Writer, rows []EpsilonRow) {
	fmt.Fprintln(w, "Ablation: tolerance sweep (RSME at the mid-sweep k; tighter eps forces more noise)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  dataset\teps\tk\tsigma\trel discrepancy")
	for _, r := range rows {
		if r.Failed {
			fmt.Fprintf(tw, "  %s\t%.4f\t%d\tFAIL\t-\n", r.Dataset, r.Epsilon, r.K)
			continue
		}
		fmt.Fprintf(tw, "  %s\t%.4f\t%d\t%.3f\t%.4f\n", r.Dataset, r.Epsilon, r.K, r.Sigma, r.RelDisc)
	}
	tw.Flush()
}
