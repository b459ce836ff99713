package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"chameleon/internal/atomicfile"
	"chameleon/internal/uncertain"
)

// CellStoreVersion is the on-disk sweep-checkpoint format version.
const CellStoreVersion = 1

// cellStoreFile is the persisted form of a CellStore: a config echo used
// to reject resumption under a different configuration, plus the finished
// cells keyed by "dataset/method/k<paperK>".
type cellStoreFile struct {
	Version       int    `json:"version"`
	Seed          uint64 `json:"seed"`
	Samples       int    `json:"samples"`
	MetricSamples int    `json:"metric_samples"`
	Pairs         int    `json:"pairs"`
	Quick         bool   `json:"quick"`
	// Sampling tuple (ISSUE 7). Older files carry the zero values, which
	// decode as (independent, fixed budget) — exactly how they were
	// produced — so no version bump is needed.
	SamplingMode string         `json:"sampling_mode,omitempty"`
	TargetRSE    float64        `json:"target_rse,omitempty"`
	MaxSamples   int            `json:"max_samples,omitempty"`
	Cells        map[string]Run `json:"cells"`
}

// CellStore checkpoints an evaluation sweep at cell granularity. Every
// (dataset, method, k) cell is independently deterministic — its Params
// seed is derived from the config seed, the method name and k alone — so
// a sweep interrupted between cells and resumed later reproduces exactly
// the runs an uninterrupted sweep would have produced: finished cells are
// replayed from the store, unfinished ones are recomputed from their seeds.
//
// The store is written atomically after every finished cell; a cell that
// failed because the run was cancelled is never stored (the caller gates
// Put on its context). A CellStore is safe for concurrent use.
type CellStore struct {
	mu   sync.Mutex
	path string
	file cellStoreFile
}

// OpenCellStore loads the sweep checkpoint at path, creating a fresh one
// when the file does not exist. A checkpoint written under a different
// seed or fidelity configuration is rejected: silently mixing cells from
// two configurations would corrupt the sweep.
func OpenCellStore(path string, c Config) (*CellStore, error) {
	c = c.withDefaults()
	want := cellStoreFile{
		Version:       CellStoreVersion,
		Seed:          c.Seed,
		Samples:       c.Samples,
		MetricSamples: c.MetricSamples,
		Pairs:         c.Pairs,
		Quick:         c.Quick,
		SamplingMode:  samplingModeEcho(c.SamplingMode),
		TargetRSE:     c.TargetRSE,
		MaxSamples:    c.MaxSamples,
		Cells:         make(map[string]Run),
	}
	s := &CellStore{path: path, file: want}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("exp: reading sweep checkpoint: %w", err)
	}
	var got cellStoreFile
	if err := json.Unmarshal(data, &got); err != nil {
		return nil, fmt.Errorf("exp: parsing sweep checkpoint %s: %w", path, err)
	}
	if got.Version != CellStoreVersion {
		return nil, fmt.Errorf("exp: sweep checkpoint %s has format version %d, this build reads %d", path, got.Version, CellStoreVersion)
	}
	if got.Seed != want.Seed || got.Samples != want.Samples ||
		got.MetricSamples != want.MetricSamples || got.Pairs != want.Pairs ||
		got.Quick != want.Quick || got.SamplingMode != want.SamplingMode ||
		got.TargetRSE != want.TargetRSE || got.MaxSamples != want.MaxSamples {
		return nil, fmt.Errorf("exp: sweep checkpoint %s was written under a different configuration (seed/samples/pairs/quick/sampling mismatch)", path)
	}
	if got.Cells == nil {
		got.Cells = make(map[string]Run)
	}
	s.file = got
	return s, nil
}

// samplingModeEcho renders the mode for the config echo: the default
// independent mode echoes as "", so checkpoints written before the field
// existed (which decode it as "") compare equal to a default-mode run.
func samplingModeEcho(m uncertain.SamplingMode) string {
	if m == uncertain.SampleIndependent {
		return ""
	}
	return m.String()
}

func cellKey(dataset, method string, paperK int) string {
	return fmt.Sprintf("%s/%s/k%d", dataset, method, paperK)
}

// Get returns the stored run for a cell, if any. Nil-safe: a nil store
// never has cells, so unconfigured sweeps take the compute path untouched.
func (s *CellStore) Get(dataset, method string, paperK int) (Run, bool) {
	if s == nil {
		return Run{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	run, ok := s.file.Cells[cellKey(dataset, method, paperK)]
	return run, ok
}

// Put stores a finished cell and flushes the file atomically. Callers must
// not Put a cell whose failure was caused by cancellation — that cell
// needs recomputation on resume, and storing it would freeze the failure.
func (s *CellStore) Put(run Run) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.file.Cells[cellKey(run.Dataset, run.Method, run.PaperK)] = run
	if err := atomicfile.WriteJSON(s.path, s.file); err != nil {
		return fmt.Errorf("exp: writing sweep checkpoint: %w", err)
	}
	return nil
}

// Len returns the number of stored cells.
func (s *CellStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.file.Cells)
}

// Clear removes the checkpoint file; called when a sweep completes so a
// later run does not resume from finished state.
func (s *CellStore) Clear() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.file.Cells = make(map[string]Run)
	if err := os.Remove(s.path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("exp: removing sweep checkpoint: %w", err)
	}
	return nil
}
