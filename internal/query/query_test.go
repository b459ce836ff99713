package query

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"chameleon/internal/knn"
	"chameleon/internal/obs"
	"chameleon/internal/obs/wideevent"
	"chameleon/internal/reliability"
	"chameleon/internal/uncertain"
)

func testGraph(t *testing.T) *uncertain.Graph {
	t.Helper()
	rng := rand.New(rand.NewPCG(9, 0))
	g := uncertain.New(30)
	for m := 0; m < 90; m++ {
		u := uncertain.NodeID(rng.IntN(30))
		v := uncertain.NodeID(rng.IntN(30))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, 0.2+0.7*rng.Float64())
	}
	return g
}

// TestEngineParity: engine answers match direct calls into the
// underlying estimators with the same configuration.
func TestEngineParity(t *testing.T) {
	g := testGraph(t)
	e := New(g, Options{Samples: 400, Seed: 3, Workers: 2})
	est := reliability.Estimator{Samples: 400, Seed: 3, Workers: 2}

	ctx := context.Background()
	resp, err := e.Do(ctx, Request{Kind: KindPairReliability, U: 2, V: 17})
	if err != nil {
		t.Fatal(err)
	}
	if want := est.PairReliability(g, 2, 17); resp.Value != want {
		t.Fatalf("pair_reliability = %v, direct = %v", resp.Value, want)
	}

	resp, err = e.Do(ctx, Request{Kind: KindKNN, U: 2, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := knn.Query(g, 2, 5, est)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Neighbors) != len(want) {
		t.Fatalf("knn returned %d neighbors, direct %d", len(resp.Neighbors), len(want))
	}
	for i := range want {
		if resp.Neighbors[i].Node != want[i].Node || resp.Neighbors[i].Reliability != want[i].Reliability {
			t.Fatalf("neighbor %d = %+v, direct %+v", i, resp.Neighbors[i], want[i])
		}
	}

	resp, err = e.Do(ctx, Request{Kind: KindDegree, U: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := g.ExpectedDegree(4); resp.Value != want {
		t.Fatalf("degree = %v, want %v", resp.Value, want)
	}

	resp, err = e.Do(ctx, Request{Kind: KindDegreeDistribution})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Distribution) == 0 {
		t.Fatal("empty degree distribution")
	}

	resp, err = e.Do(ctx, Request{Kind: KindCentrality, U: 0})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Value < 0 {
		t.Fatalf("negative centrality %v", resp.Value)
	}
}

// TestEngineTelemetry: requests feed counters, per-kind latency
// instruments, request IDs, spans and the label cache.
func TestEngineTelemetry(t *testing.T) {
	g := testGraph(t)
	o := obs.NewObserver()
	e := New(g, Options{Samples: 200, Seed: 1, Obs: o, SpanEvery: 1})
	ctx := context.Background()

	e.Warm(ctx)
	for i := 0; i < 5; i++ {
		if _, err := e.Do(ctx, Request{Kind: KindPairReliability, U: 0, V: uncertain.NodeID(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Do(ctx, Request{Kind: KindDegree, U: 99}); err == nil || !IsBadRequest(err) {
		t.Fatalf("out-of-range degree: err = %v, want bad request", err)
	}
	if _, err := e.Do(ctx, Request{Kind: "bogus"}); err == nil || !IsBadRequest(err) {
		t.Fatalf("unknown kind: err = %v, want bad request", err)
	}

	snap := o.Registry().Snapshot()
	if got := snap.Counters["query.requests"]; got != 7 {
		t.Fatalf("query.requests = %d, want 7", got)
	}
	if got := snap.Counters["query.errors"]; got != 2 {
		t.Fatalf("query.errors = %d, want 2", got)
	}
	if got := snap.Counters["query.requests.pair_reliability"]; got != 5 {
		t.Fatalf("per-kind requests = %d, want 5", got)
	}
	if got := snap.Counters["query.errors.degree"]; got != 1 {
		t.Fatalf("query.errors.degree = %d, want 1", got)
	}
	if lat := snap.Latencies["query.latency.all"]; lat.Count != 7 {
		t.Fatalf("query.latency.all count = %d, want 7", lat.Count)
	}
	if lat := snap.Latencies["query.latency.pair_reliability"]; lat.Count != 5 {
		t.Fatalf("per-kind latency count = %d, want 5", lat.Count)
	}
	// Warm sampled once; every pair query was a cache lookup.
	if misses := snap.Counters["mc.label_cache.misses"]; misses != 1 {
		t.Fatalf("label cache misses = %d, want 1", misses)
	}
	if hits := snap.Counters["mc.label_cache.hits"]; hits != 5 {
		t.Fatalf("label cache hits = %d, want 5", hits)
	}
	// With SpanEvery=1 the last request left a span snapshot, and the
	// observer itself accumulated none (per-request spans stay detached).
	s := e.LastSpan()
	if s == nil || s.Name != "query.bogus" {
		t.Fatalf("last span = %+v, want query.bogus", s)
	}
	if n := len(o.Spans()); n != 0 {
		t.Fatalf("observer accumulated %d spans; request spans must stay detached", n)
	}
}

// TestEngineRequestIDs: IDs are sequential and unique across requests.
func TestEngineRequestIDs(t *testing.T) {
	e := New(testGraph(t), Options{Samples: 50})
	ctx := context.Background()
	r1, _ := e.Do(ctx, Request{Kind: KindDegree, U: 1})
	r2, _ := e.Do(ctx, Request{Kind: KindDegree, U: 2})
	if r1.RequestID != "q-00000001" || r2.RequestID != "q-00000002" {
		t.Fatalf("request IDs %q, %q", r1.RequestID, r2.RequestID)
	}
}

// TestRequestIDFormat: requestID writes what fmt's "q-%08d" writes, below
// and past eight digits.
func TestRequestIDFormat(t *testing.T) {
	for _, n := range []int64{1, 9, 10, 1234567, 12345678, 99999999, 100000000, 1 << 40} {
		if got, want := requestID(n), fmt.Sprintf("q-%08d", n); got != want {
			t.Fatalf("requestID(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestEngineDoAllocs: without wide events or spans, a degree request
// allocates only its ID string, with an Observer attached or not.
func TestEngineDoAllocs(t *testing.T) {
	e := New(testGraph(t), Options{Samples: 50, SpanEvery: -1})
	ctx := context.Background()
	req := Request{Kind: KindDegree, U: 1}
	if allocs := testing.AllocsPerRun(100, func() { e.Do(ctx, req) }); allocs > 1 {
		t.Fatalf("a degree request allocated %v times, want at most 1", allocs)
	}
	// New resolved the Observer's instruments: Do looks none up by name.
	e = New(testGraph(t), Options{Samples: 50, SpanEvery: -1, Obs: obs.NewObserver()})
	if allocs := testing.AllocsPerRun(100, func() { e.Do(ctx, req) }); allocs > 1 {
		t.Fatalf("a traced degree request allocated %v times, want at most 1", allocs)
	}
}

// TestEngineWideEvents: each request emits one wide event (modulo
// sampling) with the request's dimensions flattened in.
func TestEngineWideEvents(t *testing.T) {
	var buf bytes.Buffer
	w := wideevent.NewWriter(&buf, wideevent.Options{})
	e := New(testGraph(t), Options{Samples: 100, Events: w})
	ctx := context.Background()

	e.Do(ctx, Request{Kind: KindKNN, U: 3, K: 4})
	e.Do(ctx, Request{Kind: KindDegree, U: 999}) // error event
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := wideevent.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0].Kind != KindKNN || events[0].Outcome != "ok" ||
		events[0].Attrs["u"] != float64(3) || events[0].Attrs["k"] != float64(4) {
		t.Fatalf("knn event: %+v", events[0])
	}
	if events[0].RequestID != "q-00000001" || events[0].LatencyNS <= 0 {
		t.Fatalf("knn event identity: %+v", events[0])
	}
	if events[1].Outcome != "error" || events[1].Error == "" {
		t.Fatalf("error event: %+v", events[1])
	}
}

// TestHTTPRoundTrip: the handler answers JSON POSTs, maps validation
// errors to 400 and rejects non-POSTs.
func TestHTTPRoundTrip(t *testing.T) {
	g := testGraph(t)
	e := New(g, Options{Samples: 200, Seed: 3})
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	post := func(body string) (*http.Response, Response) {
		t.Helper()
		res, err := http.Post(srv.URL, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var qr Response
		if err := json.NewDecoder(res.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		return res, qr
	}

	res, qr := post(`{"kind":"pair_reliability","u":2,"v":17}`)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	est := reliability.Estimator{Samples: 200, Seed: 3}
	if want := est.PairReliability(g, 2, 17); qr.Value != want {
		t.Fatalf("HTTP pair_reliability = %v, direct = %v", qr.Value, want)
	}
	if qr.RequestID == "" || qr.LatencyNS <= 0 {
		t.Fatalf("response missing telemetry: %+v", qr)
	}

	res, qr = post(`{"kind":"knn","u":1,"k":0}`)
	if res.StatusCode != http.StatusBadRequest || qr.Error == "" {
		t.Fatalf("bad k: status %d, error %q", res.StatusCode, qr.Error)
	}

	res, qr = post(`{"kind":"pair_reliability","bogus":1}`)
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", res.StatusCode)
	}

	getRes, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	getRes.Body.Close()
	if getRes.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", getRes.StatusCode)
	}
}

// TestEngineCancelledContext: a cancelled context surfaces as a
// non-bad-request error and never poisons the label cache.
func TestEngineCancelledContext(t *testing.T) {
	o := obs.NewObserver()
	e := New(testGraph(t), Options{Samples: 400, Seed: 2, Obs: o})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Do(ctx, Request{Kind: KindPairReliability, U: 0, V: 1})
	if err == nil || IsBadRequest(err) {
		t.Fatalf("cancelled request: err = %v", err)
	}
	if misses := o.Registry().Snapshot().Counters["mc.label_cache.misses"]; misses != 0 {
		t.Fatalf("cancelled sampling cached a label set (misses=%d)", misses)
	}

	// A later healthy request samples and answers normally.
	resp, err := e.Do(context.Background(), Request{Kind: KindPairReliability, U: 0, V: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := reliability.Estimator{Samples: 400, Seed: 2}.PairReliability(e.Graph(), 0, 1)
	if resp.Value != want {
		t.Fatalf("post-cancel answer = %v, want %v", resp.Value, want)
	}
}
