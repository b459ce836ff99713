package exp

import (
	"fmt"
	"io"
	"text/tabwriter"

	"chameleon/internal/attack"
	"chameleon/internal/core"
	"chameleon/internal/knn"
	"chameleon/internal/reliability"
)

// AttackRow is one dataset's empirical privacy validation: the success of
// the Bayesian degree-knowledge adversary against the unprotected
// original and against each method's published graph.
type AttackRow struct {
	Dataset string
	Method  string // "original" for the unprotected baseline
	K       int
	Failed  bool
	// Adversary success statistics (see attack.Report).
	MeanPosterior float64
	Top1Rate      float64
	TopKRate      float64
	MeanRank      float64
}

// AttackExperiment attacks every method's output at the mid-sweep k. It
// is the empirical counterpart of the formal (k, eps)-obf check: success
// statistics must collapse toward the 1/k regime.
func (c Config) AttackExperiment() ([]AttackRow, error) {
	c = c.withDefaults()
	paperK := c.PaperKs[len(c.PaperKs)/2]
	var rows []AttackRow
	for _, d := range c.Datasets() {
		if err := c.ctx().Err(); err != nil {
			return rows, err
		}
		g, err := c.BuildDataset(d)
		if err != nil {
			return nil, err
		}
		k := d.KScale(paperK)
		base, err := attack.Simulate(g, g, k)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AttackRow{
			Dataset: d.Name, Method: "original", K: k,
			MeanPosterior: base.MeanPosterior, Top1Rate: base.Top1Rate,
			TopKRate: base.TopKRate, MeanRank: base.MeanRank,
		})
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
				rows = append(rows, AttackRow{Dataset: d.Name, Method: method, K: k, Failed: true})
				continue
			}
			rep, err := attack.Simulate(g, res.Graph, k)
			if err != nil {
				return nil, err
			}
			rows = append(rows, AttackRow{
				Dataset: d.Name, Method: method, K: k,
				MeanPosterior: rep.MeanPosterior, Top1Rate: rep.Top1Rate,
				TopKRate: rep.TopKRate, MeanRank: rep.MeanRank,
			})
		}
	}
	return rows, nil
}

// WriteAttack renders the attack-validation table.
func WriteAttack(w io.Writer, rows []AttackRow) {
	fmt.Fprintln(w, "Privacy validation: Bayesian degree-knowledge re-identification attack")
	fmt.Fprintln(w, "(random guessing: posterior = 1/|V|; k-obfuscation target: <= 1/k)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  dataset\tmethod\tk\tmean posterior\ttop-1 rate\ttop-k rate\tmean rank")
	for _, r := range rows {
		if r.Failed {
			fmt.Fprintf(tw, "  %s\t%s\t%d\tFAIL\t-\t-\t-\n", r.Dataset, r.Method, r.K)
			continue
		}
		fmt.Fprintf(tw, "  %s\t%s\t%d\t%.4f\t%.4f\t%.4f\t%.1f\n",
			r.Dataset, r.Method, r.K, r.MeanPosterior, r.Top1Rate, r.TopKRate, r.MeanRank)
	}
	tw.Flush()
}

// KNNRow is one dataset's downstream-task utility probe: how much of the
// reliability k-NN structure each method's output retains.
type KNNRow struct {
	Dataset string
	Method  string
	K       int // anonymization k
	Failed  bool
	Score   float64 // mean Jaccard of top-10 reliability neighborhoods
}

// KNNExperiment measures reliability-kNN preservation per method at the
// mid-sweep k — the workload class ([30], [4], [38]) the paper's utility
// metric is designed to protect.
func (c Config) KNNExperiment() ([]KNNRow, error) {
	c = c.withDefaults()
	paperK := c.PaperKs[len(c.PaperKs)/2]
	est := c.estimator(c.Samples/2, 77)
	opts := knn.PreservationOptions{K: 10, Queries: 20, Seed: c.Seed + 78}
	var rows []KNNRow
	for _, d := range c.Datasets() {
		if err := c.ctx().Err(); err != nil {
			return rows, err
		}
		g, err := c.BuildDataset(d)
		if err != nil {
			return nil, err
		}
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
				rows = append(rows, KNNRow{Dataset: d.Name, Method: method, K: k, Failed: true})
				continue
			}
			score, err := knn.PreservationScore(g, res.Graph, opts, est)
			if err == nil {
				err = c.ctx().Err()
			}
			if err != nil {
				return rows, err
			}
			rows = append(rows, KNNRow{Dataset: d.Name, Method: method, K: k, Score: score})
		}
	}
	return rows, nil
}

// WriteKNN renders the kNN-preservation table.
func WriteKNN(w io.Writer, rows []KNNRow) {
	fmt.Fprintln(w, "Downstream utility: reliability k-NN preservation (mean Jaccard of top-10 neighborhoods, higher is better)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  dataset\tmethod\tk\tpreservation")
	for _, r := range rows {
		if r.Failed {
			fmt.Fprintf(tw, "  %s\t%s\t%d\tFAIL\n", r.Dataset, r.Method, r.K)
			continue
		}
		fmt.Fprintf(tw, "  %s\t%s\t%d\t%.3f\n", r.Dataset, r.Method, r.K, r.Score)
	}
	tw.Flush()
}

// CSweepRow is one point of the candidate-budget ablation: the effect of
// the size multiplier c on feasibility, the chosen noise level and the
// utility cost.
type CSweepRow struct {
	Dataset string
	C       float64
	K       int
	Failed  bool
	Sigma   float64
	RelDisc float64
}

// CSweepAblation runs RSME on the first dataset at the top-of-sweep k for
// a range of candidate multipliers. Larger c admits more injection
// candidates: harder k values become feasible and less noise per edge is
// needed, at the cost of touching more vertex pairs.
func (c Config) CSweepAblation(multipliers []float64) ([]CSweepRow, error) {
	c = c.withDefaults()
	if len(multipliers) == 0 {
		multipliers = []float64{1.1, 1.5, 2.0, 3.0}
	}
	d := c.Datasets()[0]
	g, err := c.BuildDataset(d)
	if err != nil {
		return nil, err
	}
	paperK := c.PaperKs[len(c.PaperKs)-1]
	k := d.KScale(paperK)
	est := c.estimator(0, 7)
	var rows []CSweepRow
	for _, mult := range multipliers {
		if err := c.ctx().Err(); err != nil {
			return rows, err
		}
		params := c.searchParams(k, d.Epsilon, c.Seed)
		params.SizeMultiplier = mult
		res, err := core.AnonymizeContext(c.ctx(), g, params)
		if err != nil {
			if cerr := c.ctx().Err(); cerr != nil {
				return rows, cerr
			}
			rows = append(rows, CSweepRow{Dataset: d.Name, C: mult, K: k, Failed: true})
			continue
		}
		disc, err := est.RelativeDiscrepancy(g, res.Graph, reliability.PairSample{Pairs: c.Pairs, Seed: c.Seed + 11})
		if err == nil {
			err = c.ctx().Err()
		}
		if err != nil {
			return rows, err
		}
		rows = append(rows, CSweepRow{Dataset: d.Name, C: mult, K: k, Sigma: res.Sigma, RelDisc: disc})
	}
	return rows, nil
}

// WriteCSweep renders the candidate-budget ablation table.
func WriteCSweep(w io.Writer, rows []CSweepRow) {
	fmt.Fprintln(w, "Ablation: candidate-set multiplier c (RSME at the top-of-sweep k)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  dataset\tc\tk\tsigma\trel discrepancy")
	for _, r := range rows {
		if r.Failed {
			fmt.Fprintf(tw, "  %s\t%.1f\t%d\tFAIL\t-\n", r.Dataset, r.C, r.K)
			continue
		}
		fmt.Fprintf(tw, "  %s\t%.1f\t%d\t%.3f\t%.4f\n", r.Dataset, r.C, r.K, r.Sigma, r.RelDisc)
	}
	tw.Flush()
}
