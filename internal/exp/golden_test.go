package exp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// goldenTable is one rendered table, pinned by testdata/<name>.golden.
type goldenTable struct {
	name string
	got  []byte
}

// goldenTables renders every cell-driven table of one configuration.
func goldenTables(t *testing.T, c Config) []goldenTable {
	t.Helper()
	var tables []goldenTable
	render := func(name string, write func(*bytes.Buffer) error) {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tables = append(tables, goldenTable{name, b.Bytes()})
	}
	runs, bases, err := c.SweepAll(Methods)
	if err != nil {
		t.Fatal(err)
	}
	render("tableI", func(b *bytes.Buffer) error { c.WriteTableI(b, bases); return nil })
	render("fig4", func(b *bytes.Buffer) error { WriteFig4(b, runs, bases); return nil })
	for _, fig := range []string{"fig8", "fig9", "fig10", "fig11"} {
		render(fig, func(b *bytes.Buffer) error { return WriteFigure(b, fig, runs) })
	}
	render("attack", func(b *bytes.Buffer) error {
		rows, err := c.AttackExperiment()
		WriteAttack(b, rows)
		return err
	})
	render("knn", func(b *bytes.Buffer) error {
		rows, err := c.KNNExperiment()
		WriteKNN(b, rows)
		return err
	})
	render("centrality", func(b *bytes.Buffer) error {
		rows, err := c.CentralityExperiment()
		WriteCentrality(b, rows)
		return err
	})
	render("dp", func(b *bytes.Buffer) error {
		rows, err := c.DPComparison()
		WriteDP(b, rows)
		return err
	})
	render("epsilon", func(b *bytes.Buffer) error {
		rows, err := c.EpsilonSweep(nil)
		WriteEpsilonSweep(b, rows)
		return err
	})
	render("csweep", func(b *bytes.Buffer) error {
		rows, err := c.CSweepAblation(nil)
		WriteCSweep(b, rows)
		return err
	})
	return tables
}

// TestTablesGolden pins the experiment tables of a small Quick
// configuration byte for byte, rendered at one and at three workers: every
// number is a function of the seeds alone, never of the scheduling.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden experiment tables skipped in -short mode")
	}
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := Config{Quick: true, Seed: 7, Samples: 60, PaperKs: []int{100, 300}, Workers: workers}
			for _, tab := range goldenTables(t, c) {
				want, err := os.ReadFile(filepath.Join("testdata", tab.name+".golden"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(tab.got, want) {
					t.Errorf("%s differs from testdata/%s.golden:\n--- got ---\n%s--- want ---\n%s",
						tab.name, tab.name, tab.got, want)
				}
			}
		})
	}
}
