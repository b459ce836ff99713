package reliability

import (
	"math"
	"testing"

	"chameleon/internal/obs"
)

// TestQualityRecorded: every estimator op must publish its statistical
// health — pooled per-sample stream, last-call stderr/CI gauges and the
// relative-SE convergence gauge — into the registry.
func TestQualityRecorded(t *testing.T) {
	g := randomGraph(11, 40, 90)
	h := randomGraph(12, 40, 88)
	o := obs.NewObserver()
	est := Estimator{Samples: 200, Seed: 5, Workers: 2, Obs: o}

	ecc := est.ExpectedConnectedPairs(g)
	est.PairReliability(g, 0, 7)
	est.EdgeRelevance(g)
	if _, err := est.SampledPairDiscrepancy(g, h, PairSample{Pairs: 500, Seed: 3}); err != nil {
		t.Fatal(err)
	}

	snap := o.Registry().Snapshot()
	for _, op := range []string{
		"mc.quality.ExpectedConnectedPairs",
		"mc.quality.PairReliability",
		"mc.quality.EdgeRelevance",
		// Per-pair discrepancy values are correlated across the shared
		// worlds, so they publish as pairspread, not quality.
		"mc.pairspread.SampledPairDiscrepancy",
	} {
		q, ok := snap.Quality[op]
		if !ok {
			t.Errorf("missing quality stream %s: %v", op, snap.Quality)
			continue
		}
		if q.Count < 2 {
			t.Errorf("%s: count = %d, want >= 2", op, q.Count)
		}
		if q.CI95Lo > q.Mean || q.CI95Hi < q.Mean {
			t.Errorf("%s: CI [%v, %v] does not bracket mean %v", op, q.CI95Lo, q.CI95Hi, q.Mean)
		}
		for _, gauge := range []string{".last_stderr", ".last_ci95_lo", ".last_ci95_hi", ".last_rse"} {
			if _, ok := snap.Gauges[op+gauge]; !ok {
				t.Errorf("missing gauge %s%s", op, gauge)
			}
		}
	}
	if _, ok := snap.Quality["mc.quality.SampledPairDiscrepancy"]; ok {
		t.Error("per-pair discrepancy leaked into the mc.quality namespace")
	}

	// The ExpectedConnectedPairs stream's mean is the estimate itself
	// (both are means over the same drawn worlds).
	q := snap.Quality["mc.quality.ExpectedConnectedPairs"]
	if math.Abs(q.Mean-ecc) > 1e-9*math.Abs(ecc) {
		t.Errorf("quality mean %v != estimate %v", q.Mean, ecc)
	}

	// Per-edge ERR standard-error aggregates from the σ-search precompute.
	if snap.Gauges["err.stderr.mean"] <= 0 || snap.Gauges["err.stderr.max"] < snap.Gauges["err.stderr.mean"] {
		t.Errorf("ERR stderr gauges implausible: mean=%v max=%v",
			snap.Gauges["err.stderr.mean"], snap.Gauges["err.stderr.max"])
	}
}

// TestQualityCachedPathRecorded: an ExpectedConnectedPairs call served
// from the label cache must still publish quality (from the cached cc
// stream) — the CI report cannot silently vanish when caching kicks in.
func TestQualityCachedPathRecorded(t *testing.T) {
	g := randomGraph(21, 35, 70)
	o := obs.NewObserver()
	est := Estimator{Samples: 150, Seed: 9, Obs: o, Cache: NewLabelCache()}
	if _, err := est.Discrepancy(g, g); err != nil { // populates the cache for g
		t.Fatal(err)
	}
	before := o.Registry().Snapshot().Quality["mc.quality.ExpectedConnectedPairs"].Count
	est.ExpectedConnectedPairs(g) // cache hit
	after := o.Registry().Snapshot().Quality["mc.quality.ExpectedConnectedPairs"].Count
	if after != before+150 {
		t.Errorf("cached-path call added %d quality observations, want 150", after-before)
	}
}

// TestQualityNilObserver: the nil-disables-everything contract — estimates
// are bit-identical with and without an observer, and the nil path records
// nothing and does not panic.
func TestQualityNilObserver(t *testing.T) {
	g := randomGraph(31, 40, 85)
	h := randomGraph(32, 40, 80)
	withObs := Estimator{Samples: 120, Seed: 4, Obs: obs.NewObserver()}
	without := Estimator{Samples: 120, Seed: 4}

	if a, b := withObs.ExpectedConnectedPairs(g), without.ExpectedConnectedPairs(g); a != b {
		t.Errorf("ExpectedConnectedPairs differs with observer: %v vs %v", a, b)
	}
	if a, b := withObs.PairReliability(g, 1, 5), without.PairReliability(g, 1, 5); a != b {
		t.Errorf("PairReliability differs with observer: %v vs %v", a, b)
	}
	ra, rb := withObs.EdgeRelevance(g), without.EdgeRelevance(g)
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("EdgeRelevance[%d] differs with observer: %v vs %v", i, ra[i], rb[i])
		}
	}
	da, err := withObs.SampledPairDiscrepancy(g, h, PairSample{Pairs: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	db, err := without.SampledPairDiscrepancy(g, h, PairSample{Pairs: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Errorf("SampledPairDiscrepancy differs with observer: %v vs %v", da, db)
	}
}

// TestUndersampledFlagged: a tiny sample budget on a high-variance
// statistic must trip the relative-SE convergence flag.
func TestUndersampledFlagged(t *testing.T) {
	g := randomGraph(41, 60, 75) // sparse: cc varies a lot across worlds
	o := obs.NewObserver()
	est := Estimator{Samples: 4, Seed: 2, Obs: o}
	est.ExpectedConnectedPairs(g)
	snap := o.Registry().Snapshot()
	rse := snap.Gauges["mc.quality.ExpectedConnectedPairs.last_rse"]
	if rse <= UndersampledRSE {
		t.Skipf("4-sample estimate happened to converge (rse=%v); nothing to flag", rse)
	}
	if snap.Counters["mc.quality.undersampled"] == 0 {
		t.Errorf("rse=%v above threshold but undersampled counter not bumped", rse)
	}
}

// TestPairSpreadNotConvergence: the pairspread streams measure per-pair
// spread over a shared world sample, not Monte Carlo error, so they must
// never trip the mc.quality.undersampled convergence flag — however noisy
// the per-pair values are.
func TestPairSpreadNotConvergence(t *testing.T) {
	g := randomGraph(61, 50, 70)
	h := randomGraph(62, 50, 65)
	o := obs.NewObserver()
	est := Estimator{Samples: 100, Seed: 6, Obs: o}
	if _, err := est.SampledPairDiscrepancy(g, h, PairSample{Pairs: 200, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	snap := o.Registry().Snapshot()
	q, ok := snap.Quality["mc.pairspread.SampledPairDiscrepancy"]
	if !ok || q.Count != 200 {
		t.Fatalf("pairspread stream = %+v (ok=%v), want 200 observations", q, ok)
	}
	if rse := snap.Gauges["mc.pairspread.SampledPairDiscrepancy.last_rse"]; rse > UndersampledRSE {
		if snap.Counters["mc.quality.undersampled"] != 0 {
			t.Errorf("pairspread rse=%v bumped the undersampled convergence counter", rse)
		}
	} else {
		t.Logf("pairspread rse=%v below threshold; counter check vacuous", rse)
	}
}

// TestQualityMergeAcrossWorkers: the per-chunk Welford partials must
// merge into the same moments for any worker count.
func TestQualityMergeAcrossWorkers(t *testing.T) {
	g := randomGraph(51, 45, 100)
	stats := func(workers int) obs.QualitySnapshot {
		o := obs.NewObserver()
		est := Estimator{Samples: 256, Seed: 8, Workers: workers, Obs: o}
		est.ExpectedConnectedPairs(g)
		return o.Registry().Snapshot().Quality["mc.quality.ExpectedConnectedPairs"]
	}
	serial := stats(1)
	for _, workers := range []int{2, 5} {
		par := stats(workers)
		if par.Count != serial.Count {
			t.Fatalf("workers=%d: count %d != %d", workers, par.Count, serial.Count)
		}
		if math.Abs(par.Mean-serial.Mean) > 1e-9*math.Abs(serial.Mean) {
			t.Errorf("workers=%d: mean %v != %v", workers, par.Mean, serial.Mean)
		}
		if math.Abs(par.Variance-serial.Variance) > 1e-6*serial.Variance {
			t.Errorf("workers=%d: variance %v != %v", workers, par.Variance, serial.Variance)
		}
	}
}
