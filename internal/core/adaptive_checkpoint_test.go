package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"chameleon/internal/uncertain"
)

// ckAdaptiveParams configures a reliability-sensitive search under the
// coupled sampler with adaptive stopping — every Monte Carlo knob of ISSUE
// 7 at once. Workers=1 keeps the context-poll sequence deterministic (the
// parallel samplers poll from racing goroutines), which stepCtx needs.
func ckAdaptiveParams(path string) Params {
	return Params{
		K: 40, Epsilon: 0.04, Samples: 60, Seed: 11, Variant: RSME, Workers: 1,
		SamplingMode: uncertain.SampleCoupled, TargetRSE: 0.05, MaxSamples: 512,
		CheckpointPath: path,
	}
}

// TestResumeBitIdenticalCoupledAdaptive extends the resume guarantee to
// the new sampling tuple: a σ-search using coupled draws and sequential
// stopping, interrupted at assorted depths, must resume to a result
// bit-identical to the uninterrupted run. This works because every world
// draw is a pure function of (seed, sample index) — there is no mutable
// RNG cursor beyond Seq to snapshot.
func TestResumeBitIdenticalCoupledAdaptive(t *testing.T) {
	g := testGraph(t, 5)
	full, err := Anonymize(g, ckAdaptiveParams(""))
	if err != nil {
		t.Fatal(err)
	}
	fullBytes := encodeGraph(t, full.Graph)

	// Limits are spread across the polls of the uninterrupted search.
	polls := newStepCtx(math.MaxInt64)
	if _, err := AnonymizeContext(polls, g, ckAdaptiveParams("")); err != nil {
		t.Fatal(err)
	}
	total := polls.polls.Load()
	resumed := 0
	for _, limit := range []int64{total / 6, total * 2 / 5, total * 3 / 5, total * 9 / 10} {
		ckPath := filepath.Join(t.TempDir(), "search.ckpt")
		p := ckAdaptiveParams(ckPath)
		if _, err := AnonymizeContext(newStepCtx(limit), g, p); !errors.Is(err, context.Canceled) {
			t.Fatalf("limit %d: interrupted run error = %v, want context.Canceled", limit, err)
		}
		ck, err := LoadCheckpoint(ckPath)
		if err != nil {
			// Interrupted inside the Monte Carlo precompute, before the first
			// GenObf boundary: nothing to checkpoint yet. Other limits cover
			// the resumable region.
			continue
		}
		resumed++
		if ck.SamplingMode != "coupled" || ck.TargetRSE != 0.05 || ck.MaxSamples != 512 {
			t.Fatalf("limit %d: checkpoint echoes sampling tuple (%s, %v, %d), want (coupled, 0.05, 512)",
				limit, ck.SamplingMode, ck.TargetRSE, ck.MaxSamples)
		}

		p.Resume = ck
		res, err := AnonymizeContext(context.Background(), g, p)
		if err != nil {
			t.Fatalf("limit %d: resumed run: %v", limit, err)
		}
		if res.Sigma != full.Sigma || res.EpsilonTilde != full.EpsilonTilde {
			t.Errorf("limit %d: resumed (sigma=%v, eps~=%v) != full (sigma=%v, eps~=%v)",
				limit, res.Sigma, res.EpsilonTilde, full.Sigma, full.EpsilonTilde)
		}
		if !bytes.Equal(encodeGraph(t, res.Graph), fullBytes) {
			t.Errorf("limit %d: resumed graph bytes differ from uninterrupted run", limit)
		}
	}
	if resumed == 0 {
		t.Fatal("no interruption point produced a resumable checkpoint; deepen the limits")
	}
}

// TestCheckpointRejectsSamplingTupleMismatch: resuming under a different
// sampling mode or stopping target would silently change every estimate of
// the search; the parameter echo must reject it.
func TestCheckpointRejectsSamplingTupleMismatch(t *testing.T) {
	g := testGraph(t, 5)
	ckPath := filepath.Join(t.TempDir(), "search.ckpt")
	if _, err := AnonymizeContext(newStepCtx(60), g, ckAdaptiveParams(ckPath)); !errors.Is(err, context.Canceled) {
		t.Fatalf("setup: %v", err)
	}
	ck, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Skipf("interrupt landed before the first checkpointable boundary: %v", err)
	}

	for name, mutate := range map[string]func(*Params){
		"sampling mode": func(p *Params) { p.SamplingMode = uncertain.SampleAntithetic },
		"target rse":    func(p *Params) { p.TargetRSE = 0.01 },
		"max samples":   func(p *Params) { p.MaxSamples = 1024 },
	} {
		p := ckAdaptiveParams("")
		p.Resume = ck
		mutate(&p)
		if _, err := AnonymizeContext(context.Background(), g, p); err == nil {
			t.Errorf("resume with changed %s must fail", name)
		}
	}
}
