package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"chameleon/internal/obs"
	"chameleon/internal/privacy"
	"chameleon/internal/uncertain"
)

// stepCtx is a deterministic cancellation source: it reports itself
// cancelled starting from the limit-th Err() poll. With a variant that
// skips Monte Carlo precompute (ME/Boldi) on one worker, Err() is polled
// at a fixed, reproducible sequence of points — once after precompute,
// once per GenObf attempt, once per call wrap-up — so a given limit always
// interrupts the search at the same spot (see serialCut). On more workers
// a probe may claim, and poll for, trials past its chosen one.
type stepCtx struct {
	context.Context
	polls atomic.Int64
	limit int64
	done  chan struct{}
}

func newStepCtx(limit int64) *stepCtx {
	return &stepCtx{Context: context.Background(), limit: limit, done: make(chan struct{})}
}

func (c *stepCtx) Err() error {
	if c.polls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

func (c *stepCtx) Done() <-chan struct{} { return c.done }

// serialCut says where a stepCtx of the given limit cuts a one-worker run
// of the search whose genobf spans are calls: it returns how many calls
// complete before the cut. The context is polled once after the
// precompute (ME and Boldi sample nothing there), then per span once for
// each trial it runs and once at wrap-up; on one worker a probe runs no
// trial past its chosen one.
func serialCut(calls []tracedCall, limit int64) (done int) {
	polls := int64(1)
	for _, c := range calls {
		if polls += int64(c.read) + 1; polls > limit || c.rerun {
			break
		}
		done++
	}
	return done
}

// readThrough counts the trials the first n calls read.
func readThrough(calls []tracedCall, n int) int {
	sum := 0
	for _, c := range calls[:n] {
		sum += c.read
	}
	return sum
}

// serialLimit is the stepCtx limit that lets a one-worker run of the search
// whose genobf spans are calls complete its first n calls and cuts the
// next one at its first poll.
func serialLimit(calls []tracedCall, n int) int64 {
	polls := int64(1)
	for _, c := range calls[:n] {
		polls += int64(c.read) + 1
	}
	return polls
}

// attemptsAfter counts the trials a run resumed from a v3 checkpoint taken
// after the first n calls of the search whose genobf spans are calls
// reads: those of every later call, and those of a full re-run of a probe
// best found after the checkpoint (a best from before it is the
// checkpoint's, which a v3 file holds complete).
func attemptsAfter(calls []tracedCall, n int) int {
	sum := 0
	for i, c := range calls {
		if i >= n && (!c.rerun || c.call > n) {
			sum += c.read
		}
	}
	return sum
}

// ckParams configures a search long enough to interrupt at interesting
// depths: K=40 on the 250-node test graph needs real noise, so the
// exponential phase runs ~5 doublings and the bisection ~10 steps (65
// context polls end to end on one worker).
func ckParams(path string) Params {
	return Params{
		K: 40, Epsilon: 0.04, Samples: 60, Seed: 11, Variant: ME,
		CheckpointPath: path,
	}
}

func encodeGraph(t *testing.T, g *uncertain.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := uncertain.WriteBinaryV2(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResumeBitIdentical is the core checkpoint/resume guarantee: for a
// range of interruption points — mid-exponential-search, mid-bisection,
// deep into the search — resuming from the written checkpoint yields a
// result bit-identical (graph bytes, sigma, epsilon, effort counters) to
// the uninterrupted run, with the attempts on one worker or two. Every
// cut falls inside a GenObf call, and the cut call is discarded whole: the
// checkpoint logs one step per completed call and the trials they read.
func TestResumeBitIdentical(t *testing.T) {
	g := testGraph(t, 5)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			params := func(path string) Params {
				p := ckParams(path)
				p.Workers = workers
				return p
			}
			full, err := Anonymize(g, params(""))
			if err != nil {
				t.Fatal(err)
			}
			fullBytes := encodeGraph(t, full.Graph)
			calls := tracedCalls(full.Trace)

			// ctx is polled once after the precompute, then per call
			// once per claimed attempt and once at wrap-up. A full or
			// failed call claims all t attempts; a probe that succeeds
			// claims those up to its chosen one on one worker, and on two
			// perhaps some past it, so two workers complete at most the
			// calls one does. The limits run from the first call to the
			// last.
			total := serialLimit(calls, len(calls))
			for _, limit := range []int64{2, 8, total / 4, total / 2, total - 2} {
				ckPath := filepath.Join(t.TempDir(), "search.ckpt")
				p := params(ckPath)
				partial, err := AnonymizeContext(newStepCtx(limit), g, p)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("limit %d: interrupted run error = %v, want context.Canceled", limit, err)
				}
				if partial == nil {
					t.Fatalf("limit %d: interrupted run must return a partial result", limit)
				}
				ck, err := LoadCheckpoint(ckPath)
				if err != nil {
					t.Fatalf("limit %d: %v", limit, err)
				}
				done := serialCut(calls, limit)
				if workers > 1 {
					// Fewer calls complete when a probe polled for
					// trials past its chosen one.
					done = min(done, len(ck.Steps))
				}
				read := readThrough(calls, done)
				if len(ck.Steps) != done || ck.AttemptCount != read {
					t.Errorf("limit %d: checkpoint (%d steps, %d attempts), want the %d completed calls' (%d, %d)",
						limit, len(ck.Steps), ck.AttemptCount, done, done, read)
				}

				p.Resume = ck
				resumed, err := AnonymizeContext(context.Background(), g, p)
				if err != nil {
					t.Fatalf("limit %d: resumed run: %v", limit, err)
				}
				if resumed.Sigma != full.Sigma || resumed.EpsilonTilde != full.EpsilonTilde {
					t.Errorf("limit %d: resumed (sigma=%v, eps~=%v) != full (sigma=%v, eps~=%v)",
						limit, resumed.Sigma, resumed.EpsilonTilde, full.Sigma, full.EpsilonTilde)
				}
				if resumed.GenObfCalls != full.GenObfCalls || resumed.Attempts != full.Attempts {
					t.Errorf("limit %d: resumed effort (%d calls, %d attempts) != full (%d, %d)",
						limit, resumed.GenObfCalls, resumed.Attempts, full.GenObfCalls, full.Attempts)
				}
				if !bytes.Equal(encodeGraph(t, resumed.Graph), fullBytes) {
					t.Errorf("limit %d: resumed graph bytes differ from uninterrupted run", limit)
				}
				// The completed resume must clean its checkpoint up.
				if _, err := os.Stat(ckPath); !errors.Is(err, os.ErrNotExist) {
					t.Errorf("limit %d: checkpoint survived a completed run (stat err %v)", limit, err)
				}
			}
		})
	}
}

// TestInterruptReturnsBestSoFar: once the exponential phase has found any
// feasible obfuscation, an interrupt mid-bisection still hands the caller
// a usable graph.
func TestInterruptReturnsBestSoFar(t *testing.T) {
	g := testGraph(t, 5)
	// Limit 45 is deep enough to be in bisection for this graph/seed (the
	// bit-identical test above exercises the same point).
	partial, err := AnonymizeContext(newStepCtx(45), g, ckParams(""))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if partial.Graph == nil {
		t.Fatal("interrupt after a feasible sigma was found must return the best-so-far graph")
	}
	if partial.EpsilonTilde > 0.04 {
		t.Fatalf("best-so-far eps~ = %v exceeds the tolerance", partial.EpsilonTilde)
	}
}

func TestAnonymizeContextPreCancelled(t *testing.T) {
	g := testGraph(t, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, variant := range []Variant{RSME, ME} {
		p := ckParams("")
		p.Variant = variant
		res, err := AnonymizeContext(ctx, g, p)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: error = %v, want context.Canceled", variant, err)
		}
		if res == nil || res.Graph != nil {
			t.Fatalf("%v: pre-cancelled run result = %+v, want a result without a graph", variant, res)
		}
		// The trace survives so the run's timeline can still be journaled.
		if res.Trace == nil || res.Trace.Find("precompute") == nil {
			t.Fatalf("%v: pre-cancelled run lost its trace", variant)
		}
	}
}

// acceptedCheckpoint interrupts p, a ckParams search, on testGraph(5)
// mid-bisection, after its first accepted call, and returns the
// checkpoint it wrote to p.CheckpointPath and the index of its last
// accepted step.
func acceptedCheckpoint(t *testing.T, p Params) (ck *Checkpoint, best int) {
	t.Helper()
	if _, err := AnonymizeContext(newStepCtx(45), testGraph(t, 5), p); !errors.Is(err, context.Canceled) {
		t.Fatalf("setup: %v", err)
	}
	ck, err := LoadCheckpoint(p.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	best = lastAccepted(ck.Steps)
	if best < 0 {
		t.Fatal("setup: the checkpoint logs no accepted call")
	}
	return ck, best
}

// lastAccepted returns the index of the last accepted step, the best's,
// or -1.
func lastAccepted(steps []CheckpointStep) int {
	for i := len(steps) - 1; i >= 0; i-- {
		if steps[i].OK {
			return i
		}
	}
	return -1
}

// TestCheckpointHoldsOnlyIdentityAndSteps: a checkpoint holds its format
// version, the input's hash, the parameter echo, the trials read and the
// step log — no cursor and no best, which the log determines, even once
// a call has been accepted.
func TestCheckpointHoldsOnlyIdentityAndSteps(t *testing.T) {
	p := ckParams(filepath.Join(t.TempDir(), "search.ckpt"))
	acceptedCheckpoint(t, p)
	data, err := os.ReadFile(p.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range fields {
		got = append(got, k)
	}
	slices.Sort(got)
	want := []string{"attempt_count", "attempts", "epsilon", "graph_hash", "k", "max_doublings", "max_samples",
		"samples", "sampling_mode", "seed", "sigma_tolerance", "size_multiplier", "steps", "target_rse",
		"variant", "version", "white_noise"}
	if !slices.Equal(got, want) {
		t.Fatalf("checkpoint keys = %v, want %v", got, want)
	}
}

func TestCheckpointRejectsMismatch(t *testing.T) {
	g := testGraph(t, 5)
	ck, best := acceptedCheckpoint(t, ckParams(filepath.Join(t.TempDir(), "search.ckpt")))

	t.Run("different graph", func(t *testing.T) {
		other := testGraph(t, 6)
		p := ckParams("")
		p.Resume = ck
		if _, err := AnonymizeContext(context.Background(), other, p); err == nil {
			t.Fatal("resume against a different graph must fail")
		}
	})
	t.Run("different params", func(t *testing.T) {
		p := ckParams("")
		p.Resume = ck
		p.Seed++
		if _, err := AnonymizeContext(context.Background(), g, p); err == nil {
			t.Fatal("resume with a different seed must fail")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := *ck
		bad.Version = CheckpointVersion + 1
		path := filepath.Join(t.TempDir(), "bad.ckpt")
		if err := bad.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(path); err == nil {
			t.Fatal("version mismatch must fail to load")
		}
	})
	// A step log the search could not have written, and a best whose
	// re-run disagrees with its step, are refused at resume.
	for name, edit := range map[string]func(steps []CheckpointStep){
		"phase": func(steps []CheckpointStep) { steps[0].Phase = phaseBisection },
		"sigma": func(steps []CheckpointStep) { steps[len(steps)-1].Sigma *= 2 },
		"best epsilon": func(steps []CheckpointStep) {
			steps[best].Epsilon = math.Nextafter(steps[best].Epsilon, 1)
		},
	} {
		t.Run("bad "+name, func(t *testing.T) {
			bad := *ck
			bad.Steps = slices.Clone(ck.Steps)
			edit(bad.Steps)
			p := ckParams("")
			p.Resume = &bad
			if _, err := AnonymizeContext(context.Background(), g, p); !errors.Is(err, ErrCheckpointMismatch) {
				t.Fatalf("resume from a checkpoint with an edited %s: error = %v, want ErrCheckpointMismatch", name, err)
			}
		})
	}
}

// TestPeriodicCheckpointCadence: -checkpoint-every style runs write during
// the search (observable mid-run) and clean up on completion.
func TestPeriodicCheckpointCadence(t *testing.T) {
	g := testGraph(t, 5)
	ckPath := filepath.Join(t.TempDir(), "search.ckpt")
	p := ckParams(ckPath)
	p.CheckpointEvery = 1

	// Interrupt late: the periodic cadence must already have produced a
	// loadable checkpoint even before the interrupt flush (checkpoint file
	// content is then overwritten by the interrupt write, which is fine).
	if _, err := AnonymizeContext(newStepCtx(20), g, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("setup: %v", err)
	}
	ck, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Steps) == 0 {
		t.Fatal("checkpoint should record completed genobf calls")
	}
	if tt := p.withDefaults().Attempts; ck.AttemptCount < len(ck.Steps) || ck.AttemptCount > len(ck.Steps)*tt {
		t.Fatalf("checkpoint counts %d trials for %d calls of at most %d", ck.AttemptCount, len(ck.Steps), tt)
	}

	// A run allowed to finish removes the checkpoint.
	if _, err := AnonymizeContext(context.Background(), g, p); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("checkpoint survived a completed run (stat err %v)", err)
	}
}

func TestGraphHashSensitivity(t *testing.T) {
	g := testGraph(t, 5)
	h1 := GraphHash(g)
	if h1 != GraphHash(g.Clone()) {
		t.Fatal("hash must be stable across clones")
	}
	mod := g.Clone()
	if err := mod.SetProb(0, 0.123456789); err != nil {
		t.Fatal(err)
	}
	if GraphHash(mod) == h1 {
		t.Fatal("probability change must change the hash")
	}
}

// TestGraphHashPinned pins GraphHash to the values earlier builds wrote
// into checkpoints (and the job daemon into its spool), so a hash change
// can never silently orphan resumable state on disk.
func TestGraphHashPinned(t *testing.T) {
	if got, want := GraphHash(testGraph(t, 5)), uint64(0x3783a6666e6df4dc); got != want {
		t.Errorf("GraphHash(testGraph 5) = %#x, want %#x", got, want)
	}
	// The graph of internal/uncertain/testdata/legacy.v1.
	small := uncertain.New(6)
	for _, e := range []uncertain.Edge{{U: 0, V: 1, P: 0.5}, {U: 0, V: 3, P: 0.1}, {U: 1, V: 2, P: 1},
		{U: 2, V: 3, P: 0.123456789}, {U: 3, V: 4, P: 0}, {U: 1, V: 4, P: 0.75}} {
		small.MustAddEdge(e.U, e.V, e.P)
	}
	if got, want := GraphHash(small), uint64(0xa5b88454e5f682bc); got != want {
		t.Errorf("GraphHash(legacy graph) = %#x, want %#x", got, want)
	}
}

// sameTrajectory reports whether two step logs make the same calls with
// the same verdicts. Their ε̃ may differ: a v3 file logs full calls where
// the search now probes.
func sameTrajectory(a, b []CheckpointStep) bool {
	return slices.EqualFunc(a, b, func(x, y CheckpointStep) bool {
		return x.Phase == y.Phase && x.Sigma == y.Sigma && x.OK == y.OK
	})
}

// TestResumeLegacyCheckpoint resumes testdata/legacy-checkpoint.json, a
// version 3 checkpoint written mid-bisection, and requires the result to
// be bit-identical to the uninterrupted run. Its cursor and best fields,
// the best graph embedded in the legacy v1 format among them, are
// ignored: the resume replays its step log and rebuilds the best.
func TestResumeLegacyCheckpoint(t *testing.T) {
	g := testGraph(t, 5)
	full, err := Anonymize(g, ckParams(""))
	if err != nil {
		t.Fatal(err)
	}

	ck, err := LoadCheckpoint("testdata/legacy-checkpoint.json")
	if err != nil {
		t.Fatal(err)
	}
	p := ckParams(filepath.Join(t.TempDir(), "search.ckpt"))
	p.Resume = ck
	resumed, err := AnonymizeContext(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture's attempt total counts every trial of its calls, as the
	// search did before calls became probes.
	calls := tracedCalls(full.Trace)
	attempts := ck.AttemptCount + attemptsAfter(calls, len(ck.Steps))
	if resumed.Sigma != full.Sigma || resumed.EpsilonTilde != full.EpsilonTilde ||
		resumed.GenObfCalls != full.GenObfCalls || resumed.Attempts != attempts {
		t.Errorf("resumed (σ=%v, ε~=%v, %d calls, %d attempts) != full (σ=%v, ε~=%v, %d, %d)",
			resumed.Sigma, resumed.EpsilonTilde, resumed.GenObfCalls, resumed.Attempts,
			full.Sigma, full.EpsilonTilde, full.GenObfCalls, attempts)
	}
	if !bytes.Equal(encodeGraph(t, resumed.Graph), encodeGraph(t, full.Graph)) {
		t.Error("resumed graph bytes differ from the uninterrupted run")
	}

	// The same interruption point today logs the same trajectory.
	ckPath := filepath.Join(t.TempDir(), "search.ckpt")
	p = ckParams(ckPath)
	p.Workers = 1
	if _, err := AnonymizeContext(newStepCtx(serialLimit(calls, len(ck.Steps))), g, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run error = %v, want context.Canceled", err)
	}
	fresh, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Version != CheckpointVersion || fresh.GraphHash != ck.GraphHash || !sameTrajectory(fresh.Steps, ck.Steps) {
		t.Errorf("new checkpoint (version %d, hash %#x, steps %v) != legacy (hash %#x, steps %v)",
			fresh.Version, fresh.GraphHash, fresh.Steps, ck.GraphHash, ck.Steps)
	}
}

// TestResumeInterruptedDuringRebuild: a resumed run whose context is
// cancelled while it re-runs the best step's call still finishes that
// re-run, hands back the best and checkpoints the same log; resumed
// again, on one worker or two, it publishes the uninterrupted run's bytes
// and effort totals.
func TestResumeInterruptedDuringRebuild(t *testing.T) {
	g := testGraph(t, 5)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := ckParams(filepath.Join(t.TempDir(), "search.ckpt"))
			p.Workers = workers
			full, err := Anonymize(g, ckParams(""))
			if err != nil {
				t.Fatal(err)
			}
			ck, best := acceptedCheckpoint(t, p)

			// The precompute's poll passes; every later one, from the
			// re-run on, reports the cancellation.
			p.Resume = ck
			partial, err := AnonymizeContext(newStepCtx(1), g, p)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted resume error = %v, want context.Canceled", err)
			}
			if partial.Graph == nil || partial.EpsilonTilde != ck.Steps[best].Epsilon {
				t.Fatalf("interrupted resume returned graph %v with ε~ %v, want the best step's ε~ %v",
					partial.Graph != nil, partial.EpsilonTilde, ck.Steps[best].Epsilon)
			}
			again, err := LoadCheckpoint(p.CheckpointPath)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(again.Steps, ck.Steps) || again.AttemptCount != ck.AttemptCount {
				t.Fatalf("checkpoint after the interrupted resume (%d steps, %d attempts), want the resumed one's (%d, %d)",
					len(again.Steps), again.AttemptCount, len(ck.Steps), ck.AttemptCount)
			}

			p.Resume = again
			resumed, err := AnonymizeContext(context.Background(), g, p)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Sigma != full.Sigma || resumed.EpsilonTilde != full.EpsilonTilde ||
				resumed.GenObfCalls != full.GenObfCalls || resumed.Attempts != full.Attempts {
				t.Errorf("resumed (σ=%v, ε~=%v, %d calls, %d attempts) != full (σ=%v, ε~=%v, %d, %d)",
					resumed.Sigma, resumed.EpsilonTilde, resumed.GenObfCalls, resumed.Attempts,
					full.Sigma, full.EpsilonTilde, full.GenObfCalls, full.Attempts)
			}
			if !bytes.Equal(encodeGraph(t, resumed.Graph), encodeGraph(t, full.Graph)) {
				t.Error("resumed graph bytes differ from the uninterrupted run")
			}
		})
	}
}

// cutCtx reports itself cancelled from the first Err() poll at which cut
// returns true.
type cutCtx struct {
	context.Context
	mu  sync.Mutex
	cut func() bool
	hit bool
}

func (c *cutCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.hit {
		c.hit = c.cut()
	}
	if c.hit {
		return context.Canceled
	}
	return nil
}

// TestResumeAfterProbeAndDuringRerun: on testGraph(5) at k = 25 the last
// bisection call of the ME search fails, so its winner is a probe's best
// re-run in full. A run cut right after that probe, and one cut during the
// re-run, each hand back the probe's chosen trial — a (k, ε)-obfuscation —
// and log it as the last accepted step; resumed, on one worker or two,
// they publish the uninterrupted run's bytes and effort totals.
func TestResumeAfterProbeAndDuringRerun(t *testing.T) {
	g := testGraph(t, 5)
	params := func(workers int, path string) Params {
		return Params{K: 25, Epsilon: 0.04, Samples: 60, Seed: 11, Variant: ME,
			Workers: workers, CheckpointPath: path, Obs: obs.NewObserver()}
	}
	for _, workers := range []int{1, 2} {
		full, err := Anonymize(g, params(workers, ""))
		if err != nil {
			t.Fatal(err)
		}
		fullBytes := encodeGraph(t, full.Graph)
		calls := tracedCalls(full.Trace)
		rerun := calls[len(calls)-1]
		if !rerun.rerun {
			t.Fatal("the search's winner is no re-run probe; the test needs one")
		}
		tt := Params{}.withDefaults().Attempts
		for _, c := range []struct {
			name     string
			calls    int  // completed calls at the cut
			attempts int  // trials they read
			during   bool // cut inside the re-run, not at the next call
		}{
			{"after the probe", rerun.call, readThrough(calls, rerun.call), false},
			{"during the re-run", full.GenObfCalls, full.Attempts - tt, true},
		} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, c.name), func(t *testing.T) {
				p := params(workers, filepath.Join(t.TempDir(), "search.ckpt"))
				reg := p.Obs.Registry()
				mark := int64(-1)
				ctx := &cutCtx{Context: context.Background(), cut: func() bool {
					if !c.during {
						return reg.Counter("core.genobf_calls").Value() > int64(c.calls)
					}
					// Every call has ended once its latency is recorded:
					// cut the re-run after it ran a trial.
					if mark < 0 && reg.Latency("core.genobf_seconds").Count() == int64(c.calls) {
						mark = reg.Counter("core.genobf_attempts").Value()
					}
					return mark >= 0 && reg.Counter("core.genobf_attempts").Value() > mark
				}}
				partial, err := AnonymizeContext(ctx, g, p)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("interrupted run error = %v, want context.Canceled", err)
				}
				if partial.Graph == nil || partial.EpsilonTilde > p.Epsilon {
					t.Fatalf("interrupted run returned graph %v with ε~ %v, want a probe's accepted trial", partial.Graph != nil, partial.EpsilonTilde)
				}
				rep, err := privacy.CheckObfuscation(partial.Graph, privacy.DegreeProperty(g), p.K)
				if err != nil || rep.EpsilonTilde > p.Epsilon {
					t.Fatalf("independent check of the interrupted run's graph: ε~ %v, err %v", rep.EpsilonTilde, err)
				}
				ck, err := LoadCheckpoint(p.CheckpointPath)
				if err != nil {
					t.Fatal(err)
				}
				best := lastAccepted(ck.Steps)
				if len(ck.Steps) != c.calls || ck.AttemptCount != c.attempts || best != rerun.call-1 ||
					ck.Steps[best].Epsilon != partial.EpsilonTilde {
					t.Fatalf("checkpoint (%d steps, %d attempts, best step %d), want (%d, %d, %d with ε~ %v)",
						len(ck.Steps), ck.AttemptCount, best, c.calls, c.attempts, rerun.call-1, partial.EpsilonTilde)
				}

				p.Resume = ck
				resumed, err := AnonymizeContext(context.Background(), g, p)
				if err != nil {
					t.Fatal(err)
				}
				if resumed.Sigma != full.Sigma || resumed.EpsilonTilde != full.EpsilonTilde ||
					resumed.GenObfCalls != full.GenObfCalls || resumed.Attempts != full.Attempts {
					t.Errorf("resumed (σ=%v, ε~=%v, %d calls, %d attempts) != full (σ=%v, ε~=%v, %d, %d)",
						resumed.Sigma, resumed.EpsilonTilde, resumed.GenObfCalls, resumed.Attempts,
						full.Sigma, full.EpsilonTilde, full.GenObfCalls, full.Attempts)
				}
				if !bytes.Equal(encodeGraph(t, resumed.Graph), fullBytes) {
					t.Error("resumed graph bytes differ from the uninterrupted run")
				}
			})
		}
	}
}
