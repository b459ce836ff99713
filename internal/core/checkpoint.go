package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"chameleon/internal/atomicfile"
	"chameleon/internal/uncertain"
)

// CheckpointVersion is the on-disk checkpoint format version. Loading a
// checkpoint written by any other version than 3 or this one fails loudly
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
//	    the best so far may be a probe's, which a resume finishes by
//	    re-running its call, at stream position best_seq, in full. v3
//	    files hold a complete best and still load.
const CheckpointVersion = 4

// Search phase names as persisted in checkpoints.
const (
	phaseExponential = "exponential"
	phaseBisection   = "bisection"
)

// CheckpointStep records one completed GenObf call of the σ-search: the
// noise level tried and what came back (for a probe, the ε̃ of its first
// accepted trial). The step log lets a resumed run —
// or a human reading the file — reconstruct the whole search trajectory.
type CheckpointStep struct {
	Phase   string  `json:"phase"`
	Sigma   float64 `json:"sigma"`
	Epsilon float64 `json:"epsilon_tilde"`
	OK      bool    `json:"ok"`
}

// Checkpoint is a resumable snapshot of the σ-search, taken only at GenObf
// call boundaries (a call cut short by cancellation is discarded, so the
// snapshot never references half-consumed RNG streams). It carries three
// kinds of state:
//
//   - an identity block (format version, input-graph hash, full parameter
//     echo) used to reject resumption against a different input or
//     configuration;
//   - the search cursor (phase, σ bracket, doubling count, RNG stream
//     position Seq, call/attempt totals);
//   - the best obfuscation found so far, and whether a resume must still
//     re-run its call in full (a probe's best), with the graph embedded in
//     the v2 binary format (float64 bit patterns and sorted edge order
//     preserved), so a resumed run finishing from this state is
//     bit-identical to an uninterrupted one. Checkpoints from builds that
//     embedded v1 still load: the reader accepts either version.
//
// Everything is plain JSON: floats survive encoding/json round-trips
// bit-exactly, and BestGraph marshals as base64.
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

	// Search cursor.
	Phase        string  `json:"phase"`
	SigmaLo      float64 `json:"sigma_lo"`
	SigmaHi      float64 `json:"sigma_hi"`
	Doublings    int     `json:"doublings"`
	Seq          uint64  `json:"seq"`
	GenObfCalls  int     `json:"genobf_calls"`
	AttemptCount int     `json:"attempt_count"`

	// Best obfuscation so far; BestEpsilon == 1 and a nil BestGraph mean
	// none has been found yet. BestSeq is the stream position of the call
	// that found it, and BestProbe says that call was a probe, whose best
	// is its first accepted trial and not yet its best of t.
	BestEpsilon float64 `json:"best_epsilon"`
	BestSigma   float64 `json:"best_sigma"`
	BestGraph   []byte  `json:"best_graph,omitempty"`
	BestSeq     uint64  `json:"best_seq"`
	BestProbe   bool    `json:"best_probe"`

	Steps []CheckpointStep `json:"steps"`
}

// GraphHash fingerprints a graph: the FNV-64a hash of its canonical
// sorted edge stream with exact float64 bits (uncertain.Fingerprint), so
// any difference in topology or probabilities — however small — changes
// the hash. The stream is the legacy v1 byte layout, so the value is the
// one every earlier build recorded in its checkpoints.
func GraphHash(g *uncertain.Graph) uint64 { return uncertain.Fingerprint(g) }

// LoadCheckpoint reads and version-checks a checkpoint file. Compatibility
// with a particular graph and parameter set is checked later, by
// AnonymizeContext, once both are in hand.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: reading checkpoint: %w", err)
	}
	ck := new(Checkpoint)
	if err := json.Unmarshal(data, ck); err != nil {
		return nil, fmt.Errorf("core: parsing checkpoint %s: %w", path, err)
	}
	if ck.Version != CheckpointVersion && ck.Version != 3 {
		return nil, fmt.Errorf("core: checkpoint %s has format version %d, this build reads 3 and %d", path, ck.Version, CheckpointVersion)
	}
	switch ck.Phase {
	case phaseExponential, phaseBisection:
	default:
		return nil, fmt.Errorf("core: checkpoint %s has unknown search phase %q", path, ck.Phase)
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

// restoreCursor rebuilds the cursor (and the searchState's RNG position
// and the Result's call totals) from a validated checkpoint.
func restoreCursor(ck *Checkpoint, st *searchState, res *Result) (*searchCursor, error) {
	cur := &searchCursor{
		phase:     ck.Phase,
		sigmaLo:   ck.SigmaLo,
		sigmaHi:   ck.SigmaHi,
		doublings: ck.Doublings,
		best:      genObfOutcome{epsilon: 1},
		bestSigma: ck.BestSigma,
		steps:     append([]CheckpointStep(nil), ck.Steps...),
	}
	if len(ck.BestGraph) > 0 {
		g, err := uncertain.ReadBinary(bytes.NewReader(ck.BestGraph))
		if err != nil {
			return nil, fmt.Errorf("core: decoding checkpointed best graph: %w", err)
		}
		cur.best = genObfOutcome{epsilon: ck.BestEpsilon, graph: g, base: ck.BestSeq, probe: ck.BestProbe}
	}
	st.seq = ck.Seq
	res.GenObfCalls = ck.GenObfCalls
	res.Attempts = ck.AttemptCount
	return cur, nil
}

// checkpoint materializes the cursor into its on-disk form.
func (st *searchState) checkpoint(cur *searchCursor, res *Result) (*Checkpoint, error) {
	p := st.p
	ck := &Checkpoint{
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
		Phase:          cur.phase,
		SigmaLo:        cur.sigmaLo,
		SigmaHi:        cur.sigmaHi,
		Doublings:      cur.doublings,
		Seq:            st.seq,
		GenObfCalls:    res.GenObfCalls,
		AttemptCount:   res.Attempts,
		BestEpsilon:    cur.best.epsilon,
		BestSigma:      cur.bestSigma,
		BestSeq:        cur.best.base,
		BestProbe:      cur.best.probe,
		Steps:          cur.steps,
	}
	if cur.best.graph != nil {
		var buf bytes.Buffer
		if err := uncertain.WriteBinaryV2(&buf, cur.best.graph); err != nil {
			return nil, fmt.Errorf("core: encoding best graph for checkpoint: %w", err)
		}
		ck.BestGraph = buf.Bytes()
	}
	return ck, nil
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
	ck, err := st.checkpoint(cur, res)
	if err != nil {
		return err
	}
	if err := ck.WriteFile(st.p.CheckpointPath); err != nil {
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
