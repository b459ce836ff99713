package exp

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"chameleon/internal/obs"
)

func quickCfg() Config {
	return Config{Quick: true, Seed: 7, Samples: 100, MetricSamples: 5, Pairs: 500}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Samples != 1000 || c.MetricSamples != 50 || c.Pairs != 20000 {
		t.Fatalf("full defaults wrong: %+v", c)
	}
	if len(c.PaperKs) != 5 || c.PaperKs[0] != 100 || c.PaperKs[4] != 300 {
		t.Fatalf("PaperKs = %v", c.PaperKs)
	}
	q := Config{Quick: true}.withDefaults()
	if q.Samples != 200 || q.MetricSamples != 10 || q.Pairs != 2000 {
		t.Fatalf("quick defaults wrong: %+v", q)
	}
}

func TestDatasetsSelection(t *testing.T) {
	full := Config{}.Datasets()
	quick := Config{Quick: true}.Datasets()
	if len(full) != 3 || len(quick) != 3 {
		t.Fatalf("want 3 datasets each, got %d/%d", len(full), len(quick))
	}
	if full[0].Name != "dblp-s" || quick[0].Name != "dblp-q" {
		t.Fatalf("unexpected names %s / %s", full[0].Name, quick[0].Name)
	}
	for _, d := range quick {
		if d.Nodes > 500 {
			t.Fatalf("quick dataset %s too large: %d nodes", d.Name, d.Nodes)
		}
	}
}

func TestBuildDatasetDeterministic(t *testing.T) {
	c := quickCfg()
	d := c.Datasets()[0]
	g1, err := c.BuildDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := c.BuildDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	if !g1.Equal(g2) {
		t.Fatal("BuildDataset must be deterministic for a fixed seed")
	}
}

func TestHashNameStable(t *testing.T) {
	if hashName("abc") != hashName("abc") {
		t.Fatal("hashName must be stable")
	}
	if hashName("abc") == hashName("abd") {
		t.Fatal("hashName should distinguish close strings")
	}
}

func TestMeasureBaseline(t *testing.T) {
	c := quickCfg()
	d := c.Datasets()[0]
	g, err := c.BuildDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.MeasureBaseline(d, g)
	if err != nil {
		t.Fatal(err)
	}
	if b.Nodes != g.NumNodes() || b.Edges != g.NumEdges() {
		t.Fatalf("baseline shape wrong: %+v", b)
	}
	if b.AvgDegree <= 0 || b.AvgDistance <= 0 || b.MaxDegree <= 0 {
		t.Fatalf("baseline metrics should be positive: %+v", b)
	}
}

func TestRunCellSuccess(t *testing.T) {
	c := quickCfg()
	d := c.Datasets()[0]
	g, err := c.BuildDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	base, err := c.MeasureBaseline(d, g)
	if err != nil {
		t.Fatal(err)
	}
	run := c.RunCell(d, g, base, "RSME", 100)
	if run.Failed {
		t.Fatalf("RSME at the smallest k should succeed: %s", run.FailReason)
	}
	if run.K != d.KScale(100) {
		t.Fatalf("K = %d, want %d", run.K, d.KScale(100))
	}
	if run.EpsilonTilde > d.Epsilon {
		t.Fatalf("eps~ %v > eps %v", run.EpsilonTilde, d.Epsilon)
	}
	if run.RelDiscrepancy < 0 {
		t.Fatalf("negative discrepancy %v", run.RelDiscrepancy)
	}
}

func TestRunCellUnknownMethod(t *testing.T) {
	c := quickCfg()
	d := c.Datasets()[0]
	g, err := c.BuildDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	base := Baseline{}
	run := c.RunCell(d, g, base, "bogus", 100)
	if !run.Failed || !strings.Contains(run.FailReason, "unknown method") {
		t.Fatalf("unknown method should fail the cell: %+v", run)
	}
}

func TestWriteTableII(t *testing.T) {
	var buf bytes.Buffer
	WriteTableII(&buf)
	out := buf.String()
	for _, want := range []string{"Rep-An", "RSME", "ME", "RS", "this work"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table II missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTableI(t *testing.T) {
	c := quickCfg()
	bases := []Baseline{
		{Dataset: "dblp-q", Nodes: 400, Edges: 1200, MeanProb: 0.45, Epsilon: 0.02},
		{Dataset: "brightkite-q", Nodes: 300, Edges: 600, MeanProb: 0.3, Epsilon: 0.03},
		{Dataset: "ppi-q", Nodes: 200, Edges: 1500, MeanProb: 0.29, Epsilon: 0.05},
	}
	var buf bytes.Buffer
	c.WriteTableI(&buf, bases)
	out := buf.String()
	if !strings.Contains(out, "dblp-q") || !strings.Contains(out, "824774") {
		t.Fatalf("Table I should carry scaled and paper numbers:\n%s", out)
	}
}

func TestFig3Histograms(t *testing.T) {
	c := quickCfg()
	probs, degs, err := c.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 3 || len(degs) != 3 {
		t.Fatalf("want 3 histograms each, got %d/%d", len(probs), len(degs))
	}
	g, err := c.BuildDataset(c.Datasets()[0])
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, n := range probs[0].Counts {
		total += n
	}
	if total != g.NumEdges() {
		t.Fatalf("prob histogram mass %d != edges %d", total, g.NumEdges())
	}
	var nodes int
	for _, n := range degs[0].Counts {
		nodes += n
	}
	if nodes != g.NumNodes() {
		t.Fatalf("degree histogram mass %d != nodes %d", nodes, g.NumNodes())
	}
}

func TestWriteHistogram(t *testing.T) {
	var buf bytes.Buffer
	WriteHistogram(&buf, "test title", []Histogram{
		{Dataset: "x", Labels: []string{"a", "b"}, Counts: []int{1, 3}},
	})
	out := buf.String()
	if !strings.Contains(out, "test title") || !strings.Contains(out, "###") {
		t.Fatalf("histogram rendering:\n%s", out)
	}
}

func TestWriteFigure(t *testing.T) {
	runs := []Run{
		{Dataset: "d1", Method: "RSME", PaperK: 100, K: 5, RelDiscrepancy: 0.01},
		{Dataset: "d1", Method: "Rep-An", PaperK: 100, K: 5, RelDiscrepancy: 0.5},
		{Dataset: "d1", Method: "RSME", PaperK: 300, K: 18, Failed: true},
	}
	var buf bytes.Buffer
	if err := WriteFigure(&buf, "fig8", runs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"d1", "0.0100", "0.5000", "FAIL"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure output missing %q:\n%s", want, out)
		}
	}
	if err := WriteFigure(&buf, "nope", runs); err == nil {
		t.Fatal("unknown figure id should error")
	}
	for _, id := range []string{"fig9", "fig10", "fig11"} {
		if err := WriteFigure(&buf, id, runs); err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
	}
}

// TestWriteFig4 reads Figure 4 off sweep cells: one row per (dataset, k)
// holding both a Rep-An and an RSME cell, in the baselines' dataset order,
// with the other methods' cells ignored.
func TestWriteFig4(t *testing.T) {
	runs := []Run{
		{Dataset: "d2", Method: "Rep-An", PaperK: 100, K: 4, RelDiscrepancy: 0.7},
		{Dataset: "d2", Method: "RSME", PaperK: 100, K: 4, Failed: true},
		{Dataset: "d", Method: "RSME", PaperK: 100, K: 5, RelDiscrepancy: 0.02},
		{Dataset: "d", Method: "ME", PaperK: 100, K: 5, RelDiscrepancy: 0.9},
		{Dataset: "d", Method: "Rep-An", PaperK: 100, K: 5, RelDiscrepancy: 0.4},
		{Dataset: "d", Method: "Rep-An", PaperK: 300, K: 18, RelDiscrepancy: 0.5},
	}
	bases := []Baseline{{Dataset: "d", ExtractionOnly: 0.3}, {Dataset: "d2", ExtractionOnly: 0.6}}
	var buf bytes.Buffer
	WriteFig4(&buf, runs, bases)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("fig4 should have title, header and 2 rows:\n%s", buf.String())
	}
	for i, want := range [][]string{{"d", "100", "5", "0.4000", "0.0200", "0.3000"}, {"d2", "100", "4", "0.7000", "FAIL", "0.6000"}} {
		if got := strings.Fields(lines[2+i]); !slices.Equal(got, want) {
			t.Errorf("row %d = %v, want %v", i, got, want)
		}
	}
}

func TestWriteRunsCSV(t *testing.T) {
	runs := []Run{{Dataset: "d", Method: "ME", PaperK: 100, K: 5, RelDiscrepancy: 0.25}}
	var buf bytes.Buffer
	WriteRunsCSV(&buf, runs)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV should have header + 1 row, got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[1], "d,ME,100,5,") {
		t.Fatalf("CSV row = %q", lines[1])
	}
}

func TestERRCostGraphAndCost(t *testing.T) {
	g, err := ERRCostGraph(80, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 80 {
		t.Fatalf("edges = %d, want 80", g.NumEdges())
	}
	row := ERRCost(g, 30, 1, 1)
	if row.Edges != 80 || row.Samples != 30 {
		t.Fatalf("row = %+v", row)
	}
	if row.Speedup <= 1 {
		t.Fatalf("reuse estimator should be faster than naive, speedup = %v", row.Speedup)
	}
	var buf bytes.Buffer
	WriteERRCost(&buf, []ERRCostRow{row})
	if !strings.Contains(buf.String(), "speedup") {
		t.Fatalf("ERR cost table:\n%s", buf.String())
	}
}

func TestEntropyGain(t *testing.T) {
	c := quickCfg()
	g, err := c.BuildDataset(c.Datasets()[0])
	if err != nil {
		t.Fatal(err)
	}
	rows := EntropyGain(g, []float64{0.05, 0.2}, 3)
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.BaselineTotal <= 0 {
			t.Fatalf("baseline entropy should be positive: %+v", r)
		}
	}
	// At the larger sigma the guided scheme must outgain the unguided one.
	if rows[1].GuidedGain <= rows[1].UnguidedGain {
		t.Fatalf("ME gain %v should beat unguided %v at sigma=0.2",
			rows[1].GuidedGain, rows[1].UnguidedGain)
	}
	var buf bytes.Buffer
	WriteEntropyGain(&buf, rows)
	if !strings.Contains(buf.String(), "ME gain") {
		t.Fatalf("entropy gain table:\n%s", buf.String())
	}
}

func TestExtractionOnlyDiscrepancy(t *testing.T) {
	c := quickCfg()
	g, err := c.BuildDataset(c.Datasets()[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.MeasureBaseline(c.Datasets()[0], g)
	if err != nil {
		t.Fatal(err)
	}
	if b.ExtractionOnly <= 0 {
		t.Fatalf("representative extraction should cost reliability, got %v", b.ExtractionOnly)
	}
}

// TestQuickSweepShape is the integration test for the paper's headline
// claim: on every quick dataset, at the smallest k, Chameleon (RSME)
// must preserve reliability strictly better than Rep-An.
func TestQuickSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep skipped in -short mode")
	}
	c := quickCfg()
	c.PaperKs = []int{100}
	for _, d := range c.Datasets() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			g, err := c.BuildDataset(d)
			if err != nil {
				t.Fatal(err)
			}
			base, err := c.MeasureBaseline(d, g)
			if err != nil {
				t.Fatal(err)
			}
			rsme := c.RunCell(d, g, base, "RSME", 100)
			repan := c.RunCell(d, g, base, "Rep-An", 100)
			if rsme.Failed {
				t.Fatalf("RSME failed: %s", rsme.FailReason)
			}
			if repan.Failed {
				t.Fatalf("Rep-An failed: %s", repan.FailReason)
			}
			if rsme.RelDiscrepancy >= repan.RelDiscrepancy {
				t.Fatalf("paper shape violated: RSME discrepancy %v >= Rep-An %v",
					rsme.RelDiscrepancy, repan.RelDiscrepancy)
			}
		})
	}
}

func TestSweepAllSingleCell(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	c := quickCfg()
	c.PaperKs = []int{100}
	runs, bases, err := c.SweepAll([]string{"ME"})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 || len(bases) != 3 {
		t.Fatalf("got %d runs / %d baselines, want 3 / 3", len(runs), len(bases))
	}
	for _, r := range runs {
		if r.Method != "ME" {
			t.Fatalf("unexpected method %q", r.Method)
		}
		if r.Failed {
			t.Fatalf("%s: ME at smallest k should succeed: %s", r.Dataset, r.FailReason)
		}
		if r.Elapsed <= 0 {
			t.Fatal("elapsed time should be recorded")
		}
	}
	var buf bytes.Buffer
	c.WriteTableI(&buf, bases)
	if !strings.Contains(buf.String(), "dblp-q") {
		t.Fatalf("table I:\n%s", buf.String())
	}
}

func TestWriteFigureMissingCells(t *testing.T) {
	runs := []Run{
		{Dataset: "d1", Method: "RSME", PaperK: 100, K: 5, RelDiscrepancy: 0.01},
		{Dataset: "d1", Method: "Rep-An", PaperK: 300, K: 18, RelDiscrepancy: 0.5},
	}
	var buf bytes.Buffer
	if err := WriteFigure(&buf, "fig8", runs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "-") {
		t.Fatalf("missing cells should render as '-':\n%s", buf.String())
	}
}

func TestWriteTiming(t *testing.T) {
	runs := []Run{
		{Dataset: "d", Method: "RSME", Elapsed: 120 * 1e6}, // 120ms in ns
		{Dataset: "d", Method: "RSME", Elapsed: 240 * 1e6},
		{Dataset: "d", Method: "Rep-An", Elapsed: 480 * 1e6},
		{Dataset: "d", Method: "ME", Failed: true},
	}
	var buf bytes.Buffer
	WriteTiming(&buf, runs)
	out := buf.String()
	if !strings.Contains(out, "240") || !strings.Contains(out, "480") {
		t.Fatalf("timing table:\n%s", out)
	}
	if strings.Contains(out, "ME\t") && strings.Contains(out, "FAIL") {
		t.Fatalf("failed cells should simply be absent:\n%s", out)
	}
}

// TestSweepProgressGauges: a finished sweep leaves run.progress at 1 with
// a zero ETA, and each cell's σ-search maps its fraction into the cell's
// slice of the bar (the windowed Params) rather than resetting it.
func TestSweepProgressGauges(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	c := quickCfg()
	c.PaperKs = []int{100}
	c.Obs = obs.NewObserver()
	runs, _, err := c.SweepAll([]string{"ME"})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(runs))
	}
	snap := c.Obs.Registry().Snapshot()
	if p := snap.Gauges[obs.ProgressGauge]; p != 1 {
		t.Fatalf("%s = %v after a full sweep, want 1", obs.ProgressGauge, p)
	}
	if eta := snap.Gauges[obs.ETAGauge]; eta != 0 {
		t.Fatalf("%s = %v after a full sweep, want 0", obs.ETAGauge, eta)
	}
}

// TestSweepProgressWindow: the per-cell Params window advances with
// completed cells so in-cell σ-search progress lands inside the cell's
// slice of the sweep-wide bar.
func TestSweepProgressWindow(t *testing.T) {
	c := quickCfg().withDefaults()
	c.prog.claimTotal(4)
	base, span := c.prog.window()
	if base != 0 || span != 0.25 {
		t.Fatalf("first window = (%v, %v), want (0, 0.25)", base, span)
	}
	c.prog.step(c.Obs.Registry()) // nil registry: counts still advance
	c.prog.step(nil)
	base, span = c.prog.window()
	if base != 0.5 || span != 0.25 {
		t.Fatalf("window after 2 cells = (%v, %v), want (0.5, 0.25)", base, span)
	}
	// An unclaimed or nil progress tracker degrades to the "no window"
	// mapping that hands the whole bar to the σ-search.
	var nilProg *sweepProgress
	if b, s := nilProg.window(); b != 0 || s != 0 {
		t.Fatalf("nil window = (%v, %v), want (0, 0)", b, s)
	}
	nilProg.step(nil)
	nilProg.claimTotal(3)
}
