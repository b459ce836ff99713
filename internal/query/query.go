// Package query is the in-process query plane: it maps typed query
// descriptors (pairwise reliability, k-nearest-neighbors, degree and
// centrality metrics) onto the Monte Carlo engines in
// internal/reliability, internal/knn, internal/metrics and
// internal/centrality, behind a shared label cache so repeated queries
// against the same graph are lookups rather than fresh sampling passes.
//
// Every request gets a request ID, an SLO-grade latency observation
// (query.latency.all plus a per-kind instrument, HDR-backed so tail
// quantiles are exact within the configured relative error), a sampled
// trace span, and — when a wide-event writer is attached — one JSON
// line carrying all of its dimensions. The engine is what cmd/ugload
// drives and what the expose HTTP plane mounts at /query.
package query

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/centrality"
	"chameleon/internal/knn"
	"chameleon/internal/metrics"
	"chameleon/internal/obs"
	"chameleon/internal/obs/wideevent"
	"chameleon/internal/reliability"
	"chameleon/internal/uncertain"
)

// Query kinds accepted by the engine.
const (
	KindPairReliability    = "pair_reliability"
	KindKNN                = "knn"
	KindDegree             = "degree"
	KindDegreeDistribution = "degree_distribution"
	KindCentrality         = "centrality"
)

// Kinds lists every supported query kind (load generators iterate it).
func Kinds() []string {
	return []string{KindPairReliability, KindKNN, KindDegree,
		KindDegreeDistribution, KindCentrality}
}

// Request is one typed query descriptor.
type Request struct {
	// Kind selects the query (one of the Kind* constants).
	Kind string `json:"kind"`
	// U is the primary vertex (source for knn, subject for degree and
	// centrality, first endpoint for pair_reliability).
	U uncertain.NodeID `json:"u,omitempty"`
	// V is the second endpoint for pair_reliability.
	V uncertain.NodeID `json:"v,omitempty"`
	// K is the answer-set size for knn.
	K int `json:"k,omitempty"`
}

// Neighbor is one knn answer on the wire.
type Neighbor struct {
	Node        uncertain.NodeID `json:"node"`
	Reliability float64          `json:"reliability"`
}

// Response is the answer to one Request. Exactly one of Value,
// Neighbors or Distribution is populated, by kind.
type Response struct {
	RequestID    string     `json:"request_id"`
	Kind         string     `json:"kind"`
	Value        float64    `json:"value,omitempty"`
	Neighbors    []Neighbor `json:"neighbors,omitempty"`
	Distribution []float64  `json:"distribution,omitempty"`
	LatencyNS    int64      `json:"latency_ns"`
	Error        string     `json:"error,omitempty"`
}

// RequestError marks a request the caller got wrong (unknown kind,
// vertex out of range, bad k); the HTTP layer maps it to 400 and load
// generators count it separately from engine failures.
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// IsBadRequest reports whether err (or anything it wraps) is a
// RequestError.
func IsBadRequest(err error) bool {
	var re *RequestError
	return errors.As(err, &re)
}

// Options configures an Engine.
type Options struct {
	// Samples is the Monte Carlo world budget for reliability-backed
	// kinds (pair_reliability, knn). Zero means the estimator default.
	Samples int
	// Seed drives world sampling; the same seed answers identically.
	Seed uint64
	// Workers caps sampling parallelism per request. Zero = GOMAXPROCS.
	Workers int
	// Mode selects the world-drawing strategy.
	Mode uncertain.SamplingMode
	// CentralitySamples is the world budget for the expected-betweenness
	// precompute (default 32; Brandes dominates, keep it modest).
	CentralitySamples int
	// Obs receives counters, latency instruments and sampled spans. Nil
	// disables all telemetry.
	Obs *obs.Observer
	// Events, when non-nil, receives one wide event per request
	// (subject to the writer's own sampling policy).
	Events *wideevent.Writer
	// SpanEvery samples 1-in-N requests for a trace span (default 64;
	// values < 0 disable spans). Sampled spans are kept unattached —
	// only the most recent survives, so span overhead stays O(1)
	// however long the engine serves.
	SpanEvery int
}

// Engine answers queries against one uncertain graph. Safe for
// concurrent use; all sampling state is either immutable or behind the
// shared label cache.
type Engine struct {
	g    *uncertain.Graph
	opts Options
	est  reliability.Estimator

	// The engine's instruments, resolved once: nil without an Observer.
	requests, errors *obs.Counter
	latency          *obs.Latency
	kinds            map[string]kindInstruments // by query kind

	reqSeq  atomic.Int64
	spanSeq atomic.Int64
	span    atomic.Pointer[obs.SpanSnapshot]

	centOnce sync.Once
	cent     []float64

	distOnce sync.Once
	dist     []float64
}

// kindInstruments are one query kind's request and error counters and
// its latency instrument.
type kindInstruments struct {
	requests, errors *obs.Counter
	latency          *obs.Latency
}

// New returns an engine over g. The engine owns a fresh LabelCache, so
// the first reliability-backed request (or Warm) samples worlds once
// and every later request under the same configuration is a lookup.
// With an Observer attached, every instrument the engine records into is
// registered here, each kind's too, so a request looks none up by name.
func New(g *uncertain.Graph, opts Options) *Engine {
	if opts.SpanEvery == 0 {
		opts.SpanEvery = 64
	}
	if opts.CentralitySamples <= 0 {
		opts.CentralitySamples = 32
	}
	reg := opts.Obs.Registry()
	e := &Engine{
		g:    g,
		opts: opts,
		est: reliability.Estimator{
			Samples: opts.Samples,
			Seed:    opts.Seed,
			Workers: opts.Workers,
			Mode:    opts.Mode,
			Obs:     opts.Obs,
			Cache:   reliability.NewLabelCache(),
		},
		requests: reg.Counter("query.requests"),
		errors:   reg.Counter("query.errors"),
		latency:  reg.Latency("query.latency.all"),
		kinds:    make(map[string]kindInstruments),
	}
	for _, k := range Kinds() {
		e.kinds[k] = kindInstruments{
			requests: reg.Counter("query.requests." + k),
			errors:   reg.Counter("query.errors." + k),
			latency:  reg.Latency("query.latency." + k),
		}
	}
	return e
}

// Graph returns the graph the engine answers over.
func (e *Engine) Graph() *uncertain.Graph { return e.g }

// Warm pre-samples the label matrix (and nothing else) so the sampling
// cost lands here instead of on the first request's latency.
func (e *Engine) Warm(ctx context.Context) {
	est := e.est
	est.Ctx = ctx
	est.WarmCache(e.g)
}

// LastSpan returns the most recently sampled request span tree (nil
// until a request has been span-sampled).
func (e *Engine) LastSpan() *obs.SpanSnapshot { return e.span.Load() }

// Do answers one request. The returned Response always carries the
// request ID and latency; on error its Error field mirrors err.
func (e *Engine) Do(ctx context.Context, req Request) (Response, error) {
	id := requestID(e.reqSeq.Add(1))
	e.requests.Inc()

	var s *obs.Span
	if n := e.opts.SpanEvery; n > 0 && (e.spanSeq.Add(1)-1)%int64(n) == 0 {
		s = obs.NewSpan("query." + req.Kind)
		s.SetAttr("request_id", id)
	}

	start := time.Now()
	resp, err := e.dispatch(ctx, req)
	lat := time.Since(start)

	resp.RequestID = id
	resp.Kind = req.Kind
	resp.LatencyNS = int64(lat)

	e.latency.Observe(lat)
	outcome := "ok"
	if err != nil {
		resp.Error = err.Error()
		outcome = "error"
		e.errors.Inc()
	}
	// An unknown kind has no instruments: its nil ones record nothing.
	k := e.kinds[req.Kind]
	k.requests.Inc()
	k.latency.Observe(lat)
	if err != nil {
		k.errors.Inc()
	}
	if s != nil {
		s.SetAttr("outcome", outcome)
		s.End()
		e.span.Store(s.SnapshotTree())
	}
	if e.opts.Events != nil {
		e.opts.Events.Write(wideevent.Event{
			At:        start,
			RequestID: id,
			Kind:      req.Kind,
			Outcome:   outcome,
			Error:     resp.Error,
			LatencyNS: int64(lat),
			Attrs:     attrs(req),
		})
	}
	return resp, err
}

// requestID formats the n-th request's ID as fmt's "q-%08d" does.
func requestID(n int64) string {
	var digits, b [24]byte
	d := strconv.AppendInt(digits[:0], n, 10)
	id := append(b[:0], "q-"...)
	for range 8 - len(d) {
		id = append(id, '0')
	}
	return string(append(id, d...))
}

// attrs flattens the request parameters that matter for each kind into
// the wide event.
func attrs(req Request) map[string]any {
	switch req.Kind {
	case KindPairReliability:
		return map[string]any{"u": int64(req.U), "v": int64(req.V)}
	case KindKNN:
		return map[string]any{"u": int64(req.U), "k": req.K}
	case KindDegree, KindCentrality:
		return map[string]any{"u": int64(req.U)}
	default:
		return nil
	}
}

func (e *Engine) checkNode(v uncertain.NodeID) error {
	if v < 0 || int(v) >= e.g.NumNodes() {
		return badRequestf("query: vertex %d out of range (n=%d)", v, e.g.NumNodes())
	}
	return nil
}

func (e *Engine) dispatch(ctx context.Context, req Request) (Response, error) {
	var resp Response
	est := e.est
	est.Ctx = ctx

	switch req.Kind {
	case KindPairReliability:
		if err := e.checkNode(req.U); err != nil {
			return resp, err
		}
		if err := e.checkNode(req.V); err != nil {
			return resp, err
		}
		resp.Value = est.PairReliability(e.g, req.U, req.V)

	case KindKNN:
		if req.K < 1 {
			return resp, badRequestf("query: knn needs k >= 1, got %d", req.K)
		}
		if err := e.checkNode(req.U); err != nil {
			return resp, err
		}
		ns, err := knn.Query(e.g, req.U, req.K, est)
		if err != nil {
			// knn.Query only fails on validation, which checkNode and the
			// k guard above already cover — but stay defensive.
			return resp, badRequestf("query: %v", err)
		}
		resp.Neighbors = make([]Neighbor, len(ns))
		for i, n := range ns {
			resp.Neighbors[i] = Neighbor{Node: n.Node, Reliability: n.Reliability}
		}

	case KindDegree:
		if err := e.checkNode(req.U); err != nil {
			return resp, err
		}
		resp.Value = e.g.ExpectedDegree(req.U)

	case KindDegreeDistribution:
		e.distOnce.Do(func() { e.dist = metrics.ExpectedDegreeDistribution(e.g) })
		resp.Distribution = e.dist

	case KindCentrality:
		if err := e.checkNode(req.U); err != nil {
			return resp, err
		}
		e.centOnce.Do(func() {
			e.cent = centrality.Expected(e.g, centrality.Options{
				Samples: e.opts.CentralitySamples,
				Seed:    e.opts.Seed,
				Workers: e.opts.Workers,
			})
		})
		resp.Value = e.cent[req.U]

	default:
		return resp, badRequestf("query: unknown kind %q", req.Kind)
	}

	// Cooperative cancellation: a cancelled sampling pass returns a
	// truncated estimate; surface the cancellation instead.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return resp, err
		}
	}
	return resp, nil
}
