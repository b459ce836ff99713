package exp

import (
	"fmt"

	"chameleon/internal/gen"
	"chameleon/internal/uncertain"
)

// Fig3 computes the edge-probability and degree distributions of the
// configured datasets (Figure 3).
func (c Config) Fig3() (probHists, degHists []Histogram, err error) {
	c = c.withDefaults()
	for _, d := range c.Datasets() {
		g, err := c.BuildDataset(d)
		if err != nil {
			return nil, nil, err
		}
		probHists = append(probHists, probHistogram(d, g))
		degHists = append(degHists, degreeHistogram(d, g))
	}
	return probHists, degHists, nil
}

func probHistogram(d gen.Dataset, g *uncertain.Graph) Histogram {
	const bins = 10
	counts := g.ProbHistogram(bins)
	labels := make([]string, bins)
	for i := range labels {
		labels[i] = fmt.Sprintf("[%.1f,%.1f)", float64(i)/bins, float64(i+1)/bins)
	}
	return Histogram{Dataset: d.Name, Labels: labels, Counts: counts}
}

func degreeHistogram(d gen.Dataset, g *uncertain.Graph) Histogram {
	full := g.StructuralDegreeHistogram()
	// Log-spaced buckets keep the heavy tail visible.
	bounds := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 1 << 30}
	labels := make([]string, len(bounds))
	counts := make([]int, len(bounds))
	lo := 0
	for i, hi := range bounds {
		if hi == 1<<30 {
			labels[i] = fmt.Sprintf(">=%d", lo)
		} else {
			labels[i] = fmt.Sprintf("[%d,%d)", lo, hi)
		}
		for deg := lo; deg < hi && deg < len(full); deg++ {
			counts[i] += full[deg]
		}
		lo = hi
	}
	return Histogram{Dataset: d.Name, Labels: labels, Counts: counts}
}
