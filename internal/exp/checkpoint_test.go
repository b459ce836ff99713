package exp

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"chameleon/internal/obs"
)

func ckptCfg() Config {
	return Config{
		Quick: true, Samples: 100, MetricSamples: 5, Pairs: 500,
		Seed: 3, PaperKs: []int{5, 8}, Workers: 2,
	}
}

// sameOutcome compares the deterministic fields of two runs (timings are
// wall-clock and legitimately differ between an original and a resumed
// sweep).
func sameOutcome(a, b Run) bool {
	return a.Dataset == b.Dataset && a.Method == b.Method && a.PaperK == b.PaperK &&
		a.K == b.K && a.EpsilonTilde == b.EpsilonTilde && a.Sigma == b.Sigma &&
		a.RelDiscrepancy == b.RelDiscrepancy && a.AvgDegreeErr == b.AvgDegreeErr &&
		a.AvgDistanceErr == b.AvgDistanceErr && a.ClusteringErr == b.ClusteringErr &&
		a.EffDiameterErr == b.EffDiameterErr && a.MaxDegreeErr == b.MaxDegreeErr &&
		a.Failed == b.Failed && a.FailReason == b.FailReason
}

// TestSweepResumeFromCellStore: cells computed before an "interrupt" are
// replayed from the store, and the resumed sweep's results are identical
// to an uninterrupted sweep.
func TestSweepResumeFromCellStore(t *testing.T) {
	c := ckptCfg()
	d := c.Datasets()[2] // ppi-q, the smallest quick dataset
	full, _, err := c.Sweep(d, []string{"RSME"})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 2 {
		t.Fatalf("sweep produced %d runs, want 2", len(full))
	}

	// "Interrupted" run: compute only the first cell into the store.
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	store, err := OpenCellStore(path, c)
	if err != nil {
		t.Fatal(err)
	}
	c1 := c
	c1.Cells = store
	g, err := c1.BuildDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	base, err := c1.MeasureBaseline(d, g)
	if err != nil {
		t.Fatal(err)
	}
	c1.RunCell(d, g, base, "RSME", 5)
	if store.Len() != 1 {
		t.Fatalf("store holds %d cells, want 1", store.Len())
	}

	// Resume: reopen the store (as a fresh process would) and sweep.
	store2, err := OpenCellStore(path, c)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver()
	c2 := c
	c2.Cells = store2
	c2.Obs = o
	resumed, _, err := c2.Sweep(d, []string{"RSME"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != len(full) {
		t.Fatalf("resumed sweep produced %d runs, want %d", len(resumed), len(full))
	}
	for i := range full {
		if !sameOutcome(full[i], resumed[i]) {
			t.Errorf("run %d differs:\n full   %+v\n resumed %+v", i, full[i], resumed[i])
		}
	}
	if got := o.Registry().Snapshot().Counters["exp.cells_restored"]; got != 1 {
		t.Errorf("exp.cells_restored = %d, want 1", got)
	}

	// Finish clears the checkpoint.
	if err := c2.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("sweep checkpoint survived Finish (stat err %v)", err)
	}
}

// TestSweepCancelledCellNotStored: a sweep aborted by its context reports
// the context error and never checkpoints the interrupted cell.
func TestSweepCancelledCellNotStored(t *testing.T) {
	c := ckptCfg()
	d := c.Datasets()[2]
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	store, err := OpenCellStore(path, c)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.Ctx = ctx
	c.Cells = store
	runs, _, err := c.Sweep(d, []string{"RSME"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if len(runs) != 0 {
		t.Fatalf("cancelled sweep reported %d runs, want 0", len(runs))
	}
	if store.Len() != 0 {
		t.Fatalf("cancelled sweep stored %d cells, want 0", store.Len())
	}
	// The sweep stops at its baseline; a cell run directly under the
	// cancelled context fails and stays out of the store too.
	g, err := c.BuildDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	if run := c.RunCell(d, g, Baseline{}, "RSME", 5); !run.Failed {
		t.Fatal("cell under a cancelled context should fail")
	}
	if store.Len() != 0 {
		t.Fatalf("cancelled cell was stored: %d cells, want 0", store.Len())
	}
}

func TestOpenCellStoreRejectsMismatch(t *testing.T) {
	c := ckptCfg()
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	store, err := OpenCellStore(path, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(Run{Dataset: "x", Method: "RSME", PaperK: 5}); err != nil {
		t.Fatal(err)
	}
	c2 := c
	c2.Seed++
	if _, err := OpenCellStore(path, c2); err == nil {
		t.Fatal("store written under a different seed must be rejected")
	}
	// The matching config still opens and sees the stored cell.
	reopened, err := OpenCellStore(path, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reopened.Get("x", "RSME", 5); !ok {
		t.Fatal("stored cell lost on reopen")
	}
}

// TestNilCellStoreIsNoop: the nil-store path (no checkpointing configured)
// must be inert.
func TestNilCellStoreIsNoop(t *testing.T) {
	var s *CellStore
	if _, ok := s.Get("a", "b", 1); ok {
		t.Fatal("nil store returned a cell")
	}
	if err := s.Put(Run{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatal("nil store has nonzero length")
	}
}
