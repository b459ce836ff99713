package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/atomicfile"
	"chameleon/internal/uncertain"
)

// State is a job's lifecycle position. Transitions are
// queued → running → {done, failed, cancelled}; a daemon shutdown or
// crash parks a job back at queued/running on disk, and recovery
// re-enqueues both.
type State string

// The job states persisted in state.json.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// inFlight reports whether a job in this state still owes the client a
// result — the states recovery re-enqueues after a restart.
func (s State) inFlight() bool { return s == StateQueued || s == StateRunning }

// Job is the durable record of one anonymization job: the client's spec,
// an input-shape echo, the lifecycle cursor and — once done — the result
// summary. It is what state.json holds and what the status endpoint
// returns.
type Job struct {
	ID          string    `json:"id"`
	Spec        Spec      `json:"spec"`
	State       State     `json:"state"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`
	// Nodes and Edges echo the admitted input's shape.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// Recovered counts daemon restarts that re-enqueued this job.
	Recovered int `json:"recovered,omitempty"`
	// Error carries the failure cause for StateFailed.
	Error string `json:"error,omitempty"`
	// Result summary, populated for StateDone.
	EpsilonTilde float64 `json:"epsilon_tilde,omitempty"`
	Sigma        float64 `json:"sigma,omitempty"`
}

// Event is one line of the spool's append-only jobs.jsonl journal: every
// job state transition with its wall-clock moment, so an operator (or a
// post-mortem) can reconstruct the daemon's whole admission history even
// across crashes.
type Event struct {
	At     time.Time `json:"at"`
	JobID  string    `json:"job"`
	Event  string    `json:"event"`
	Detail string    `json:"detail,omitempty"`
}

// Spool file names inside each job's directory.
const (
	stateFile      = "state.json"
	inputFile      = "input.ug"
	resultFile     = "result.ug2"
	checkpointFile = "checkpoint.json"
	eventsFile     = "jobs.jsonl"
)

// jobSeq disambiguates job IDs minted in the same second by one process.
var jobSeq atomic.Uint64

// newJobID mints a filesystem-safe, restart-unique job identifier.
func newJobID(now time.Time) string {
	return fmt.Sprintf("%s-%d-%d", now.UTC().Format("20060102T150405"), os.Getpid(), jobSeq.Add(1))
}

// Store is the spool-directory persistence layer. Every mutation is an
// atomic write (temp file + rename via internal/atomicfile), so a
// SIGKILL at any moment leaves either the old record or the new one,
// never a torn file. The store itself is stateless between calls; the
// Manager owns the in-memory view.
type Store struct {
	dir string

	evMu sync.Mutex
	ev   *os.File
}

// NewStore opens (creating if needed) the spool directory and its event
// journal.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("jobs: spool directory required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: creating spool: %w", err)
	}
	ev, err := os.OpenFile(filepath.Join(dir, eventsFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: opening event journal: %w", err)
	}
	return &Store{dir: dir, ev: ev}, nil
}

// Dir returns the spool directory path.
func (s *Store) Dir() string { return s.dir }

// Close releases the event journal. Job files need no teardown.
func (s *Store) Close() error {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	if s.ev == nil {
		return nil
	}
	err := s.ev.Close()
	s.ev = nil
	return err
}

func (s *Store) jobDir(id string) string { return filepath.Join(s.dir, id) }

// InputPath, ResultPath and CheckpointPath locate a job's durable
// artifacts inside the spool.
func (s *Store) InputPath(id string) string      { return filepath.Join(s.jobDir(id), inputFile) }
func (s *Store) ResultPath(id string) string     { return filepath.Join(s.jobDir(id), resultFile) }
func (s *Store) CheckpointPath(id string) string { return filepath.Join(s.jobDir(id), checkpointFile) }

// Create admits a new job: it allocates the job directory, persists the
// input graph in the v2 binary encoding (float64 bit patterns and sorted
// edge order preserved — the checkpoint machinery hashes this graph, so
// the stored bytes must reproduce it exactly) and writes the initial
// queued record.
func (s *Store) Create(spec Spec, g *uncertain.Graph, now time.Time) (*Job, error) {
	job := &Job{
		ID:          newJobID(now),
		Spec:        spec,
		State:       StateQueued,
		SubmittedAt: now,
		Nodes:       g.NumNodes(),
		Edges:       g.NumEdges(),
	}
	dir := s.jobDir(job.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: creating job dir: %w", err)
	}
	var buf bytes.Buffer
	if err := uncertain.WriteBinaryV2(&buf, g); err != nil {
		return nil, fmt.Errorf("jobs: encoding input graph: %w", err)
	}
	if err := atomicfile.Write(s.InputPath(job.ID), buf.Bytes()); err != nil {
		return nil, fmt.Errorf("jobs: persisting input graph: %w", err)
	}
	if err := s.Persist(job); err != nil {
		return nil, err
	}
	return job, nil
}

// Persist writes the job record atomically.
func (s *Store) Persist(job *Job) error {
	if err := atomicfile.WriteJSON(filepath.Join(s.jobDir(job.ID), stateFile), job); err != nil {
		return fmt.Errorf("jobs: persisting job %s: %w", job.ID, err)
	}
	return nil
}

// LoadInput reads a job's stored input graph back. Spools written before
// inputs moved to v2 hold v1 files; LoadFile reads either.
func (s *Store) LoadInput(id string) (*uncertain.Graph, error) {
	g, err := uncertain.LoadFile(s.InputPath(id))
	if err != nil {
		return nil, fmt.Errorf("jobs: loading input for %s: %w", id, err)
	}
	return g, nil
}

// WriteResult persists the published graph in the sectioned v2 container
// (lossless: the quantized probability column only engages when exact),
// atomically, so a crash mid-write never leaves a torn result a client
// could fetch.
func (s *Store) WriteResult(id string, g *uncertain.Graph) error {
	var buf bytes.Buffer
	if err := uncertain.WriteBinaryV2(&buf, g); err != nil {
		return fmt.Errorf("jobs: encoding result for %s: %w", id, err)
	}
	if err := atomicfile.Write(s.ResultPath(id), buf.Bytes()); err != nil {
		return fmt.Errorf("jobs: persisting result for %s: %w", id, err)
	}
	return nil
}

// Recover scans the spool and returns every job record found, oldest
// submission first. Directories without a readable state.json are
// skipped (a crash between MkdirAll and the first Persist leaves one);
// the caller decides what to do with each state.
func (s *Store) Recover() ([]*Job, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("jobs: scanning spool: %w", err)
	}
	var out []*Job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, e.Name(), stateFile))
		if err != nil {
			continue
		}
		job := new(Job)
		if err := json.Unmarshal(data, job); err != nil || job.ID != e.Name() {
			continue
		}
		out = append(out, job)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].SubmittedAt.Equal(out[j].SubmittedAt) {
			return out[i].SubmittedAt.Before(out[j].SubmittedAt)
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// Event appends one transition record to the spool's jobs.jsonl. Append
// failures are returned, not fatal — the state.json record is the source
// of truth; the journal is the audit trail.
func (s *Store) Event(at time.Time, jobID, event, detail string) error {
	line, err := json.Marshal(Event{At: at, JobID: jobID, Event: event, Detail: detail})
	if err != nil {
		return err
	}
	s.evMu.Lock()
	defer s.evMu.Unlock()
	if s.ev == nil {
		return fmt.Errorf("jobs: event journal closed")
	}
	_, err = s.ev.Write(append(line, '\n'))
	return err
}

// ReadEvents replays a spool's jobs.jsonl journal. Unparseable lines
// (a torn final line after a crash) are skipped.
func ReadEvents(dir string) ([]Event, error) {
	f, err := os.Open(filepath.Join(dir, eventsFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Event
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var ev Event
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.JobID != "" {
			out = append(out, ev)
		}
	}
	return out, sc.Err()
}
