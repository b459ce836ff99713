// Package journal persists a run's telemetry as an append-only JSONL
// journal: one self-describing record per line, in write order. A run is
// bracketed by "begin" and "end" records; between them the writer appends
// periodic "snapshot" records (typically from the expose differ's
// OnSnapshot hook) and "span" records carrying the run's phase traces. The
// Reader reloads a journal into per-run structures whose snapshots are
// the identical obs.Snapshot values that were written, so cross-run
// comparison works on the same structs the live registry produces.
//
// A nil *Writer is usable: every method is a no-op, matching the obs
// nil-disables-everything contract. CLIs hold one unconditionally and
// only open a file when -journal is set.
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/obs"
)

// Record is one journal line. Type selects which of the optional fields
// are meaningful:
//
//	"begin":    RunID, At, Command, Args
//	"snapshot": RunID, At, Snapshot, Rates
//	"span":     RunID, At, Span
//	"end":      RunID, At, Status, Snapshot (the final CI report),
//	            Error (what stopped a "failed"/"interrupted" run)
type Record struct {
	Type     string             `json:"type"`
	RunID    string             `json:"run_id"`
	At       time.Time          `json:"at"`
	Command  string             `json:"command,omitempty"`
	Args     []string           `json:"args,omitempty"`
	Status   string             `json:"status,omitempty"`
	Error    string             `json:"error,omitempty"`
	Snapshot *obs.Snapshot      `json:"snapshot,omitempty"`
	Rates    map[string]float64 `json:"rates,omitempty"`
	Span     *obs.SpanSnapshot  `json:"span,omitempty"`
}

var runSeq atomic.Int64

// NewRunID returns a journal run identifier: UTC timestamp, pid, and a
// process-local sequence number, unique across concurrent runs appending
// to a shared journal file.
func NewRunID(now time.Time) string {
	return fmt.Sprintf("%s-%d-%d", now.UTC().Format("20060102T150405"), os.Getpid(), runSeq.Add(1))
}

// Writer appends records to a journal stream. Safe for concurrent use;
// each record is written with a single buffered-flush so lines from
// concurrent writers through the same *Writer never interleave.
type Writer struct {
	mu    sync.Mutex
	w     *bufio.Writer
	c     io.Closer
	runID string
}

// NewWriter wraps an open stream. The caller keeps ownership of w unless
// it is also an io.Closer handed in via Open.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Open opens (creating or appending) the journal file at path.
func Open(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	jw := NewWriter(f)
	jw.c = f
	return jw, nil
}

// RunID returns the identifier established by Begin ("" before Begin or
// on a nil writer).
func (w *Writer) RunID() string {
	if w == nil {
		return ""
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.runID
}

func (w *Writer) append(rec Record) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if rec.RunID == "" {
		rec.RunID = w.runID
	}
	enc := json.NewEncoder(w.w)
	if err := enc.Encode(rec); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return w.w.Flush()
}

// Begin opens a run: allocates a run ID (unless one is pre-set via the
// returned ID of a previous Begin) and appends the "begin" record.
func (w *Writer) Begin(command string, args []string, at time.Time) (string, error) {
	if w == nil {
		return "", nil
	}
	id := NewRunID(at)
	w.mu.Lock()
	w.runID = id
	w.mu.Unlock()
	return id, w.append(Record{Type: "begin", RunID: id, At: at, Command: command, Args: args})
}

// WriteSnapshot appends a periodic metrics snapshot with the differ's
// counter rates. Its signature matches the expose OnSnapshot hook:
//
//	srv := expose.New(o, expose.Options{OnSnapshot: func(at time.Time, s obs.Snapshot, r map[string]float64) {
//		jw.WriteSnapshot(at, s, r)
//	}})
func (w *Writer) WriteSnapshot(at time.Time, s obs.Snapshot, rates map[string]float64) error {
	if w == nil {
		return nil
	}
	return w.append(Record{Type: "snapshot", At: at, Snapshot: &s, Rates: rates})
}

// WriteSpan appends a phase trace. A snapshot rather than the live span is
// stored, so a span still running when it is journaled (an interrupted or
// deadline-cut run) keeps its absolute start, its elapsed time and its
// running flag instead of a zero duration.
func (w *Writer) WriteSpan(at time.Time, s *obs.SpanSnapshot) error {
	if w == nil || s == nil {
		return nil
	}
	return w.append(Record{Type: "span", At: at, Span: s})
}

// End closes the run with its status ("done", "failed" or "interrupted")
// and the final registry snapshot — the run's CI report, quality streams
// included.
func (w *Writer) End(at time.Time, status string, final obs.Snapshot) error {
	return w.EndWithError(at, status, "", final)
}

// EndWithError is End carrying the message of whatever stopped the run —
// the error of a "failed" run, the signal or deadline of an "interrupted"
// one — so a replayed journal can say why, not just that, a run died.
func (w *Writer) EndWithError(at time.Time, status, errMsg string, final obs.Snapshot) error {
	if w == nil {
		return nil
	}
	return w.append(Record{Type: "end", At: at, Status: status, Error: errMsg, Snapshot: &final})
}

// Close flushes and closes the underlying file (no-op for NewWriter over
// a caller-owned stream, or a nil writer).
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.w.Flush(); err != nil {
		return err
	}
	if w.c != nil {
		c := w.c
		w.c = nil
		return c.Close()
	}
	return nil
}

// SnapshotPoint is one periodic snapshot within a run.
type SnapshotPoint struct {
	At       time.Time
	Snapshot obs.Snapshot
	Rates    map[string]float64
}

// Run is one replayed run: its identity, every periodic snapshot in
// journal order, the recorded phase traces, and the final snapshot. A run
// without an end record keeps Status "running" and a zero End time — the
// signature of a journal truncated mid-run (a crash or a kill -9 that
// outran the interrupt handler).
type Run struct {
	ID        string
	Command   string
	Args      []string
	Start     time.Time
	End       time.Time
	Status    string
	Error     string // what stopped a "failed"/"interrupted" run, if recorded
	Snapshots []SnapshotPoint
	Spans     []*obs.SpanSnapshot
	Final     *obs.Snapshot
}

// Truncated reports whether the run never reached its end record: it is
// either still in flight or its process died without flushing one.
func (r *Run) Truncated() bool { return r.End.IsZero() }

// Read replays a journal stream into runs, keyed and ordered by first
// appearance. Records for runs whose "begin" line is missing (a truncated
// journal) still accumulate under their run ID. Malformed lines abort
// with an error naming the line number.
func Read(r io.Reader) ([]*Run, error) {
	byID := map[string]*Run{}
	var order []*Run
	get := func(id string) *Run {
		run, ok := byID[id]
		if !ok {
			run = &Run{ID: id}
			byID[id] = run
			order = append(order, run)
		}
		return run
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26) // snapshots of big sweeps are long lines
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("journal: line %d: %w", line, err)
		}
		run := get(rec.RunID)
		switch rec.Type {
		case "begin":
			run.Command, run.Args, run.Start = rec.Command, rec.Args, rec.At
			if run.Status == "" {
				run.Status = "running"
			}
		case "snapshot":
			if rec.Snapshot == nil {
				return nil, fmt.Errorf("journal: line %d: snapshot record without snapshot", line)
			}
			run.Snapshots = append(run.Snapshots, SnapshotPoint{At: rec.At, Snapshot: *rec.Snapshot, Rates: rec.Rates})
		case "span":
			if rec.Span == nil {
				return nil, fmt.Errorf("journal: line %d: span record without span", line)
			}
			if rec.Span.Start.IsZero() {
				// Span records written before snapshots carry no absolute
				// start; they were journaled as the span ended, so the
				// record's time less the duration places it on the clock.
				rec.Span.Start = rec.At.Add(-time.Duration(rec.Span.DurationNS))
			}
			run.Spans = append(run.Spans, rec.Span)
		case "end":
			run.End, run.Status, run.Error, run.Final = rec.At, rec.Status, rec.Error, rec.Snapshot
		default:
			return nil, fmt.Errorf("journal: line %d: unknown record type %q", line, rec.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return order, nil
}

// ReadFile replays the journal file at path.
func ReadFile(path string) ([]*Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	return Read(f)
}
