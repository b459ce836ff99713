package chameleon

import (
	"time"

	"chameleon/internal/obs"
	"chameleon/internal/obs/expose"
	"chameleon/internal/obs/journal"
)

// MetricsSnapshot is the frozen state of an observer's metrics registry:
// counters, gauges, latencies and estimator-quality streams. Obtain one
// with Observer.Registry().Snapshot().
type MetricsSnapshot = obs.Snapshot

// TelemetryServer serves an observer's live state over HTTP: /metrics in
// Prometheus text format (estimator-quality gauges included), /healthz,
// /runs, and /debug/pprof, plus a periodic snapshot differ that turns
// counters into *_per_second rate gauges. A nil *TelemetryServer is a
// usable no-op, mirroring the nil-Observer contract.
type TelemetryServer = expose.Server

// TelemetryOptions configures NewTelemetryServer (namespace, differ
// interval, per-tick snapshot hook).
type TelemetryOptions = expose.Options

// RunInfo is one run record listed by the telemetry server's /runs.
type RunInfo = expose.RunInfo

// NewTelemetryServer builds a telemetry server over the observer; call
// Start(addr) to bind it and Close to tear it down.
func NewTelemetryServer(o *Observer, opts TelemetryOptions) *TelemetryServer {
	return expose.New(o, opts)
}

// Journal appends a run's telemetry — begin/end brackets, periodic metric
// snapshots, phase traces — to an append-only JSONL journal, the one
// on-disk record of a run's span timeline (cmd/tracestat reads it and
// converts it for Perfetto). A nil *Journal is a usable no-op.
type Journal = journal.Writer

// JournalRun is one replayed run from a journal file.
type JournalRun = journal.Run

// OpenJournal opens (creating or appending) the journal file at path.
func OpenJournal(path string) (*Journal, error) { return journal.Open(path) }

// ReadJournal replays the journal file at path into its runs, in order of
// first appearance.
func ReadJournal(path string) ([]*JournalRun, error) { return journal.ReadFile(path) }

// NewRunID returns a fresh journal run identifier.
func NewRunID(now time.Time) string { return journal.NewRunID(now) }
