package exp

import (
	"fmt"
	"io"
	"text/tabwriter"

	"chameleon/internal/attack"
	"chameleon/internal/knn"
)

// AttackRow is one dataset's empirical privacy validation: the success of
// the Bayesian degree-knowledge adversary against the unprotected
// original and against each method's published graph.
type AttackRow struct {
	Dataset string
	Method  string // "original" for the unprotected baseline
	K       int
	Failed  bool
	// Adversary success statistics.
	attack.Report
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
		rows = append(rows, AttackRow{Dataset: d.Name, Method: "original", K: k, Report: base})
		for _, method := range Methods {
			res, fail, err := c.release(g, method, c.searchParams(k, d.Epsilon, c.Seed^hashName(method)))
			if err != nil {
				return rows, err
			}
			row := AttackRow{Dataset: d.Name, Method: method, K: k, Failed: fail != nil}
			if fail == nil {
				if row.Report, err = attack.Simulate(g, res.Graph, k); err != nil {
					return nil, err
				}
			}
			rows = append(rows, row)
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
		g, err := c.BuildDataset(d)
		if err != nil {
			return nil, err
		}
		k := d.KScale(paperK)
		for _, method := range Methods {
			res, fail, err := c.release(g, method, c.searchParams(k, d.Epsilon, c.Seed^hashName(method)))
			if err != nil {
				return rows, err
			}
			row := KNNRow{Dataset: d.Name, Method: method, K: k, Failed: fail != nil}
			if fail == nil {
				row.Score, err = knn.PreservationScore(g, res.Graph, opts, est)
				if err == nil {
					err = c.ctx().Err()
				}
				if err != nil {
					return rows, err
				}
			}
			rows = append(rows, row)
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
