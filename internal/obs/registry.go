// Package obs is the stdlib-only observability subsystem of the pipeline:
// a registry of atomic counters, gauges, HDR-backed latency instruments
// and estimator-quality streams with JSON and aligned-text snapshot
// export; lightweight hierarchical spans
// with monotonic timing for phase-level traces; an Observer that bundles
// both with optional structured logging; and helpers that wire the runtime
// profilers (pprof, execution trace) into the CLIs.
//
// Every type is safe to use through a nil receiver: a nil *Registry hands
// out nil instruments, and nil instruments drop updates. Instrumented hot
// paths therefore need no branching of their own — with observability off
// the cost is a pointer test per update.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64 value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry is a concurrency-safe, get-or-create collection of named
// instruments. The zero value is NOT usable; construct with NewRegistry.
// A nil *Registry is usable and hands out nil instruments.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	qualities map[string]*Quality
	lats      map[string]*Latency
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		qualities: make(map[string]*Quality),
		lats:      make(map[string]*Latency),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a usable no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Latency returns the named latency-class instrument (an HDR histogram
// over durations), creating it on first use.
func (r *Registry) Latency(name string) *Latency {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.lats[name]
	if !ok {
		l = newLatency()
		r.lats[name] = l
	}
	return l
}

// Quality returns the named estimator-quality stream, creating it on
// first use.
func (r *Registry) Quality(name string) *Quality {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	q, ok := r.qualities[name]
	if !ok {
		q = &Quality{}
		r.qualities[name] = q
	}
	return q
}

// Snapshot is the frozen state of a registry. Maps serialize with sorted
// keys, so the JSON form is deterministic for a given state.
type Snapshot struct {
	Counters  map[string]int64           `json:"counters"`
	Gauges    map[string]float64         `json:"gauges"`
	Latencies map[string]LatencySnapshot `json:"latencies"`
	Quality   map[string]QualitySnapshot `json:"quality"`
}

// Snapshot freezes the registry's current state. A nil registry yields an
// empty (but fully initialized) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:  map[string]int64{},
		Gauges:    map[string]float64{},
		Latencies: map[string]LatencySnapshot{},
		Quality:   map[string]QualitySnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, l := range r.lats {
		s.Latencies[name] = l.Snapshot()
	}
	for name, q := range r.qualities {
		s.Quality[name] = q.State().Snapshot()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText writes the snapshot as an aligned, alphabetically sorted text
// table.
func (s Snapshot) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(tw, "counter\t%s\t%d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(tw, "gauge\t%s\t%g\n", name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Latencies) {
		l := s.Latencies[name]
		fmt.Fprintf(tw, "latency\t%s\tcount=%d mean=%v min=%v max=%v\n",
			name, l.Count, time.Duration(l.Mean()),
			time.Duration(l.MinNS), time.Duration(l.MaxNS))
		if l.Count > 0 {
			fmt.Fprintf(tw, "\t  quantiles\tp50=%v p90=%v p99=%v p999=%v\n",
				time.Duration(l.P50NS), time.Duration(l.P90NS),
				time.Duration(l.P99NS), time.Duration(l.P999NS))
		}
	}
	for _, name := range sortedKeys(s.Quality) {
		q := s.Quality[name]
		fmt.Fprintf(tw, "quality\t%s\tn=%d mean=%.6g stderr=%.6g ci95=[%.6g, %.6g] rse=%.4g\n",
			name, q.Count, q.Mean, q.StdErr, q.CI95Lo, q.CI95Hi, q.RelStdErr)
	}
	return tw.Flush()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
