package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"chameleon/internal/atomicfile"
	"chameleon/internal/obs"
	"chameleon/internal/uncertain"
)

// CheckpointVersion is the on-disk checkpoint format version. Loading a
// checkpoint written by any version other than 3 to this one fails loudly
// rather than resuming from state with unknown semantics.
//
// Version history:
//
//	1 — initial resumable σ-search snapshot.
//	2 — sampling tuple echoed (sampling_mode, target_rse, max_samples):
//	    the mode and adaptive stopping configuration change every Monte
//	    Carlo estimate of the search, so resuming under a different tuple
//	    would silently change the trajectory. v1 files predate the tuple
//	    and are rejected rather than guessed at.
//	3 — same fields; the selection weights changed under them. θ-uniqueness
//	    became a fast Gauss transform and every exp and log2 on the path
//	    to published bytes became host-independent, so a v2 search
//	    resumed now would continue a trajectory no build of this version
//	    starts.
//	4 — best_seq and best_probe: a GenObf call became a probe that stops
//	    at its first accepted trial unless its graph can be published, so
//	    the best so far may be a probe's.
//	5 — the identity block, attempt_count and steps only: a resume
//	    replays the step log for the cursor and the best and re-runs the
//	    best step's call for its graph. v3 and v4 files hold the same log
//	    and still load; their cursor and best fields are ignored, and the
//	    calls of a v3 file, which predates probes, replay as full calls.
const CheckpointVersion = 5

// Search phase names as persisted in checkpoints.
const (
	phaseExponential = "exponential"
	phaseBisection   = "bisection"
)

// CheckpointStep records one completed GenObf call of the σ-search: its
// phase, the noise level tried and what came back (for a probe, the ε̃ of
// its first accepted trial). The step log determines the whole search
// state: a resume replays it through the search's own transitions.
type CheckpointStep struct {
	Phase   string  `json:"phase"`
	Sigma   float64 `json:"sigma"`
	Epsilon float64 `json:"epsilon_tilde"`
	OK      bool    `json:"ok"`
}

// Checkpoint is a resumable snapshot of the σ-search, taken only at GenObf
// call boundaries (a call cut short by cancellation is discarded, so the
// snapshot never references half-consumed RNG streams). It holds:
//
//   - an identity block (format version, input-graph hash, full parameter
//     echo) used to reject resumption against a different input or
//     configuration;
//   - the step log, one entry per completed call, and the trials read.
//
// Every trial draws from a stream derived from the seed and its position,
// so the log determines the rest: a resume replays it for the cursor and
// re-runs the best step's call for its graph, and a resumed run is
// bit-identical to an uninterrupted one. A log the search could not have
// written, or a best its re-run disagrees with, is refused with
// ErrCheckpointMismatch. Floats survive encoding/json round-trips
// bit-exactly.
type Checkpoint struct {
	Version   int    `json:"version"`
	GraphHash uint64 `json:"graph_hash"`

	// Parameter echo (post-defaults): a resume with any mismatch is an
	// error, because it would silently change the search trajectory.
	K              int     `json:"k"`
	Epsilon        float64 `json:"epsilon"`
	Variant        string  `json:"variant"`
	SizeMultiplier float64 `json:"size_multiplier"`
	WhiteNoise     float64 `json:"white_noise"`
	Attempts       int     `json:"attempts"`
	Samples        int     `json:"samples"`
	SamplingMode   string  `json:"sampling_mode"`
	TargetRSE      float64 `json:"target_rse"`
	MaxSamples     int     `json:"max_samples"`
	Seed           uint64  `json:"seed"`
	SigmaTolerance float64 `json:"sigma_tolerance"`
	MaxDoublings   int     `json:"max_doublings"`

	AttemptCount int              `json:"attempt_count"`
	Steps        []CheckpointStep `json:"steps"`
}

// GraphHash fingerprints a graph: the FNV-64a hash of its canonical
// sorted edge stream with exact float64 bits (uncertain.Fingerprint), so
// any difference in topology or probabilities — however small — changes
// the hash. The stream is the legacy v1 byte layout, so the value is the
// one every earlier build recorded in its checkpoints.
func GraphHash(g *uncertain.Graph) uint64 { return uncertain.Fingerprint(g) }

// LoadCheckpoint reads and version-checks a checkpoint file. Compatibility
// with a particular graph, parameter set and step log is checked later, by
// AnonymizeContext, once the graph and parameters are in hand.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: reading checkpoint: %w", err)
	}
	ck := new(Checkpoint)
	if err := json.Unmarshal(data, ck); err != nil {
		return nil, fmt.Errorf("core: parsing checkpoint %s: %w", path, err)
	}
	if ck.Version < 3 || ck.Version > CheckpointVersion {
		return nil, fmt.Errorf("core: checkpoint %s has format version %d, this build reads 3 to %d", path, ck.Version, CheckpointVersion)
	}
	return ck, nil
}

// ErrCheckpointMismatch marks a resume rejected because the checkpoint
// was taken from a different input graph or parameterization. Callers
// that hand checkpoints off across process lives (the job daemon's
// crash-recovery path) match it with errors.Is to distinguish "this
// snapshot is stale — discard it and rerun from scratch" from a genuine
// run failure.
var ErrCheckpointMismatch = errors.New("core: checkpoint does not match this run")

// validateAgainst rejects resumption when the checkpoint was taken from a
// different input graph or parameterization. p must already have defaults
// applied — checkpoints echo post-default values. Every rejection wraps
// ErrCheckpointMismatch.
func (ck *Checkpoint) validateAgainst(g *uncertain.Graph, p Params) error {
	if h := GraphHash(g); h != ck.GraphHash {
		return fmt.Errorf("%w: checkpoint is for a different graph (hash %#x, input hashes to %#x)", ErrCheckpointMismatch, ck.GraphHash, h)
	}
	mismatch := func(field string, ck, now any) error {
		return fmt.Errorf("%w: checkpoint %s mismatch: checkpoint has %v, run has %v", ErrCheckpointMismatch, field, ck, now)
	}
	switch {
	case ck.K != p.K:
		return mismatch("k", ck.K, p.K)
	case ck.Epsilon != p.Epsilon:
		return mismatch("epsilon", ck.Epsilon, p.Epsilon)
	case ck.Variant != p.Variant.String():
		return mismatch("variant", ck.Variant, p.Variant.String())
	case ck.SizeMultiplier != p.SizeMultiplier:
		return mismatch("size multiplier", ck.SizeMultiplier, p.SizeMultiplier)
	case ck.WhiteNoise != p.WhiteNoise:
		return mismatch("white noise", ck.WhiteNoise, p.WhiteNoise)
	case ck.Attempts != p.Attempts:
		return mismatch("attempts", ck.Attempts, p.Attempts)
	case ck.Samples != p.Samples:
		return mismatch("samples", ck.Samples, p.Samples)
	case ck.SamplingMode != p.SamplingMode.String():
		return mismatch("sampling mode", ck.SamplingMode, p.SamplingMode.String())
	case ck.TargetRSE != p.TargetRSE:
		return mismatch("target rse", ck.TargetRSE, p.TargetRSE)
	case ck.MaxSamples != p.MaxSamples:
		return mismatch("max samples", ck.MaxSamples, p.MaxSamples)
	case ck.Seed != p.Seed:
		return mismatch("seed", ck.Seed, p.Seed)
	case ck.SigmaTolerance != p.SigmaTolerance:
		return mismatch("sigma tolerance", ck.SigmaTolerance, p.SigmaTolerance)
	case ck.MaxDoublings != p.MaxDoublings:
		return mismatch("max doublings", ck.MaxDoublings, p.MaxDoublings)
	}
	return nil
}

// WriteFile persists the checkpoint atomically (temp file + rename), so an
// interrupt during the write never leaves a torn checkpoint behind.
func (ck *Checkpoint) WriteFile(path string) error {
	return atomicfile.WriteJSON(path, ck)
}

// removeIfExists deletes path, treating "already gone" as success.
func removeIfExists(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// searchCursor is the live, in-memory form of the resumable search state.
// next and apply are its only transitions: the live search and the replay
// of a checkpoint's step log both move it through them.
type searchCursor struct {
	phase     string
	sigmaLo   float64
	sigmaHi   float64
	doublings int
	best      genObfOutcome
	bestSigma float64
	steps     []CheckpointStep
}

func newSearchCursor(p Params) *searchCursor {
	return &searchCursor{
		phase:   phaseExponential,
		sigmaLo: 0,
		sigmaHi: 4 * p.SigmaTolerance,
		best:    genObfOutcome{epsilon: 1},
	}
}

// next returns the noise level of the search's next GenObf call and
// whether that call is a probe. An exponential call is. The bisection
// reads a call only as success or failure, and only the best of the last
// success is published, so a bisection call is a probe unless the bracket
// is within tol after it, whichever way it goes.
func (c *searchCursor) next(tol float64) (sigma float64, probe bool) {
	if c.phase == phaseExponential {
		return c.sigmaHi, true
	}
	// The halving compiles to a multiply by 0.5; float64() rounds it, so
	// the differences below do not fuse it into a multiply-add on any
	// GOARCH.
	mid := float64((c.sigmaLo + c.sigmaHi) / 2)
	return mid, mid-c.sigmaLo > tol || c.sigmaHi-mid > tol
}

// apply records the outcome of the call at sigma: it logs the step, keeps
// an accepted outcome as the best, and moves the bracket. The exponential
// phase quadruples σ until a call succeeds and then hands its bracket to
// the bisection, which halves it towards the smallest feasible σ.
func (c *searchCursor) apply(sigma float64, out genObfOutcome) {
	c.steps = append(c.steps, CheckpointStep{Phase: c.phase, Sigma: sigma, Epsilon: out.epsilon, OK: out.ok()})
	if out.ok() {
		c.best, c.bestSigma = out, sigma
	}
	switch {
	case c.phase == phaseBisection && out.ok():
		c.sigmaHi = sigma
	case c.phase == phaseBisection:
		c.sigmaLo = sigma
	case out.ok():
		c.phase = phaseBisection
	default:
		c.doublings++
		c.sigmaLo, c.sigmaHi = c.sigmaHi, c.sigmaHi*4
	}
}

// resume rebuilds the cursor, the stream position and the Result's call
// totals from a validated checkpoint by replaying its step log: each step
// must be the call the search makes from the state the steps before it
// left. It then re-runs the best step's call, at its σ, stream position
// and probe flag, for its graph. That re-run is not interrupted (a resumed
// run cut short still hands back its best), nests its span under a
// "resume" child of root, adds no attempts, which the checkpoint already
// counted, and must reproduce the logged ε̃.
func (st *searchState) resume(ctx context.Context, root *obs.Span, ck *Checkpoint, res *Result) (*searchCursor, error) {
	cur := newSearchCursor(st.p)
	t := uint64(st.p.Attempts)
	for i, s := range ck.Steps {
		sigma, probe := cur.next(st.p.SigmaTolerance)
		if s.Phase != cur.phase || s.Sigma != sigma || s.OK != (s.Epsilon < 1) {
			return nil, fmt.Errorf("%w: step %d (%s σ=%v ok=%v) is not the search's next call (%s σ=%v)",
				ErrCheckpointMismatch, i, s.Phase, s.Sigma, s.OK, cur.phase, sigma)
		}
		cur.apply(sigma, genObfOutcome{epsilon: s.Epsilon, base: uint64(i) * t, probe: probe && ck.Version > 3})
	}
	st.seq = uint64(len(ck.Steps)) * t
	res.GenObfCalls = len(ck.Steps)
	res.Attempts = ck.AttemptCount
	if cur.best.ok() {
		st.phase = root.StartChild("resume")
		out := st.genObf(context.WithoutCancel(ctx), cur.bestSigma, cur.best.base, cur.best.probe, res)
		res.Attempts = ck.AttemptCount
		st.phase.End()
		if out.epsilon != cur.best.epsilon {
			return nil, fmt.Errorf("%w: the best step's call (σ=%v) re-runs to ε̃=%v, the checkpoint logs %v",
				ErrCheckpointMismatch, cur.bestSigma, out.epsilon, cur.best.epsilon)
		}
		cur.best = out
	}
	return cur, nil
}

// checkpoint materializes the cursor into its on-disk form.
func (st *searchState) checkpoint(cur *searchCursor, res *Result) *Checkpoint {
	p := st.p
	return &Checkpoint{
		Version:        CheckpointVersion,
		GraphHash:      st.graphHash(),
		K:              p.K,
		Epsilon:        p.Epsilon,
		Variant:        p.Variant.String(),
		SizeMultiplier: p.SizeMultiplier,
		WhiteNoise:     p.WhiteNoise,
		Attempts:       p.Attempts,
		Samples:        p.Samples,
		SamplingMode:   p.SamplingMode.String(),
		TargetRSE:      p.TargetRSE,
		MaxSamples:     p.MaxSamples,
		Seed:           p.Seed,
		SigmaTolerance: p.SigmaTolerance,
		MaxDoublings:   p.MaxDoublings,
		AttemptCount:   res.Attempts,
		Steps:          cur.steps,
	}
}

// graphHash caches the input fingerprint: it is pure in the (immutable
// during the search) input graph and the hash feeds every checkpoint.
func (st *searchState) graphHash() uint64 {
	if st.gHash == 0 {
		st.gHash = GraphHash(st.g)
	}
	return st.gHash
}

// writeCheckpoint snapshots the search to Params.CheckpointPath. A no-op
// without a configured path.
func (st *searchState) writeCheckpoint(cur *searchCursor, res *Result) error {
	if st.p.CheckpointPath == "" {
		return nil
	}
	if err := st.checkpoint(cur, res).WriteFile(st.p.CheckpointPath); err != nil {
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	st.lastCkpt = res.GenObfCalls
	st.p.Obs.Debug("core: checkpoint written", "path", st.p.CheckpointPath,
		"phase", cur.phase, "genobf_calls", res.GenObfCalls)
	return nil
}

// maybeCheckpoint writes on the CheckpointEvery cadence (counted in GenObf
// calls). Cadence write failures are logged, not fatal: losing a periodic
// snapshot must not kill an otherwise healthy run — the interrupt-time
// write still reports its error to the caller.
func (st *searchState) maybeCheckpoint(cur *searchCursor, res *Result) {
	if st.p.CheckpointPath == "" || st.p.CheckpointEvery <= 0 {
		return
	}
	if res.GenObfCalls-st.lastCkpt < st.p.CheckpointEvery {
		return
	}
	if err := st.writeCheckpoint(cur, res); err != nil {
		st.p.Obs.Log("core: periodic checkpoint failed", "error", err.Error())
	}
}
