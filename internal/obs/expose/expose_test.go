package expose

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"chameleon/internal/obs"
)

// wallTimeLatencies are the σ-search, sweep-cell and GC-pause wall-time
// instruments with their /metrics family names.
var wallTimeLatencies = []struct {
	name, family string
	each         time.Duration
	count        int
}{
	{"core.genobf_seconds", "chameleon_core_genobf_seconds", 250 * time.Millisecond, 4},
	{"exp.cell_seconds", "chameleon_exp_cell_seconds", 1500 * time.Millisecond, 2},
	{obs.RuntimeGCPause, "chameleon_runtime_gc_pause_seconds", 50 * time.Microsecond, 10},
}

func testObserver() *obs.Observer {
	o := obs.NewObserver()
	r := o.Registry()
	r.Counter("mc.worlds_sampled").Add(1000)
	r.Counter("sweep.cells").Add(3)
	r.Gauge("err.stderr.mean").Set(0.125)
	r.Gauge("weird name-with.chars").Set(-1.5)
	// The wall-time instruments the pipeline records: every value of one
	// instrument is identical, so each SLO quantile clamps to it exactly.
	for _, inst := range wallTimeLatencies {
		for i := 0; i < inst.count; i++ {
			r.Latency(inst.name).Observe(inst.each)
		}
	}
	q := r.Quality("mc.quality.ExpectedConnectedPairs")
	for _, v := range []float64{100, 104, 96, 102, 98} {
		q.Observe(v)
	}
	lat := r.Latency("query.latency.all")
	for i := 0; i < 100; i++ {
		lat.ObserveNS(1_000_000) // 1ms
	}
	// The last-call companion gauges recordQuality writes next to the
	// pooled stream: their sanitized names must coexist with the stream's
	// own _stderr/_ci95_* expansion on one scrape.
	r.Gauge("mc.quality.ExpectedConnectedPairs.last_stderr").Set(0.7)
	r.Gauge("mc.quality.ExpectedConnectedPairs.last_rse").Set(0.007)
	return o
}

// metricLine matches a Prometheus text-format sample: a valid metric name,
// an optional label set (summary quantiles, build_info identity labels),
// and a float value.
var metricLine = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[+-]?Inf|[+-]?\d+(\.\d+)?([eE][+-]?\d+)?)$`)

// typeLine matches a # TYPE comment.
var typeLine = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary)$`)

// TestMetricsEndpointFormat round-trips /metrics through httptest and
// checks every line against the Prometheus text exposition grammar.
func TestMetricsEndpointFormat(t *testing.T) {
	s := New(testObserver(), Options{})
	s.Poll() // populate rates

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain prefix", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	// The Prometheus text parser aborts the whole scrape on a repeated
	// "# TYPE" line or sample name, so duplicates are hard failures here.
	samples := map[string]float64{}
	typed := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			tm := typeLine.FindStringSubmatch(line)
			if tm == nil {
				t.Errorf("malformed comment line: %q", line)
				continue
			}
			if typed[tm[1]] != "" {
				t.Errorf("duplicate # TYPE for metric %s", tm[1])
			}
			typed[tm[1]] = tm[2]
			continue
		}
		m := metricLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		if _, dup := samples[m[1]+m[2]]; dup {
			t.Errorf("duplicate sample %s%s", m[1], m[2])
		}
		v, _ := strconv.ParseFloat(m[3], 64)
		samples[m[1]+m[2]] = v
		if strings.HasSuffix(m[1], "_bucket") || strings.HasPrefix(m[2], `{le="`) {
			t.Errorf("bucket sample in a summaries-only exposition: %q", line)
		}
	}

	want := map[string]float64{
		"chameleon_mc_worlds_sampled":                            1000,
		"chameleon_sweep_cells":                                  3,
		"chameleon_err_stderr_mean":                              0.125,
		"chameleon_weird_name_with_chars":                        -1.5,
		"chameleon_mc_quality_ExpectedConnectedPairs_count":      5,
		"chameleon_mc_quality_ExpectedConnectedPairs_mean":       100,
		"chameleon_mc_worlds_sampled_per_second":                 samples["chameleon_mc_worlds_sampled_per_second"],
		"chameleon_mc_quality_ExpectedConnectedPairs_stderr":     math.Sqrt(10) / math.Sqrt(5),
		"chameleon_mc_quality_ExpectedConnectedPairs_rel_stderr": math.Sqrt(10) / math.Sqrt(5) / 100,

		// Last-call companion gauges alongside the pooled expansion.
		"chameleon_mc_quality_ExpectedConnectedPairs_last_stderr": 0.7,
		"chameleon_mc_quality_ExpectedConnectedPairs_last_rse":    0.007,

		// The latency instrument's summary exposition: every recorded value
		// is exactly 1ms, so all SLO quantiles clamp to the observed max.
		`chameleon_query_latency_all{quantile="0.5"}`:   0.001,
		`chameleon_query_latency_all{quantile="0.99"}`:  0.001,
		`chameleon_query_latency_all{quantile="0.999"}`: 0.001,
		"chameleon_query_latency_all_sum":               0.1,
		"chameleon_query_latency_all_count":             100,
	}
	for name, v := range want {
		got, ok := samples[name]
		if !ok {
			t.Errorf("missing sample %s", name)
			continue
		}
		if math.Abs(got-v) > 1e-9*math.Max(1, math.Abs(v)) {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if _, ok := samples["chameleon_mc_worlds_sampled_per_second"]; !ok {
		t.Error("missing differ rate gauge chameleon_mc_worlds_sampled_per_second")
	}
	if _, ok := samples["chameleon_uptime_seconds"]; !ok {
		t.Error("missing chameleon_uptime_seconds")
	}

	// The wall-time instruments export as summaries in seconds under
	// their registry names.
	for _, inst := range wallTimeLatencies {
		if typ := typed[inst.family]; typ != "summary" {
			t.Errorf("# TYPE %s = %q, want summary", inst.family, typ)
		}
		sec := inst.each.Seconds()
		for _, q := range []string{"0.5", "0.9", "0.99", "0.999"} {
			name := inst.family + `{quantile="` + q + `"}`
			if got, ok := samples[name]; !ok || math.Abs(got-sec) > 1e-9*sec {
				t.Errorf("%s = %v (present %v), want %v", name, got, ok, sec)
			}
		}
		if got := samples[inst.family+"_count"]; got != float64(inst.count) {
			t.Errorf("%s_count = %v, want %d", inst.family, got, inst.count)
		}
		if got, want := samples[inst.family+"_sum"], sec*float64(inst.count); math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s_sum = %v, want %v", inst.family, got, want)
		}
	}
}

// TestRatesDiffer: Poll converts counter deltas into per-second rates
// against the previous tick's baseline.
func TestRatesDiffer(t *testing.T) {
	o := obs.NewObserver()
	c := o.Registry().Counter("work.items")
	c.Add(10)
	s := New(o, Options{})

	// Force a measurable dt by back-dating the baseline.
	s.mu.Lock()
	s.prevAt = s.prevAt.Add(-2 * time.Second)
	s.prev.Counters["work.items"] = 0
	s.mu.Unlock()

	s.pollAt(time.Now())
	r := s.Rates()
	if got := r["work.items"]; math.Abs(got-5) > 0.5 {
		t.Errorf("rate = %v, want ~5/s (10 items over ~2s)", got)
	}

	// Second tick with no counter movement: rate falls to zero.
	s.mu.Lock()
	s.prevAt = s.prevAt.Add(-time.Second)
	s.mu.Unlock()
	s.pollAt(time.Now())
	if got := s.Rates()["work.items"]; got != 0 {
		t.Errorf("idle rate = %v, want 0", got)
	}
}

// TestOnSnapshotHook: the differ hook fires on every Poll with the
// snapshot just taken.
func TestOnSnapshotHook(t *testing.T) {
	o := obs.NewObserver()
	o.Registry().Counter("c").Add(7)
	var calls int
	var last obs.Snapshot
	s := New(o, Options{OnSnapshot: func(_ time.Time, snap obs.Snapshot, _ map[string]float64) {
		calls++
		last = snap
	}})
	s.Poll()
	s.Poll()
	if calls != 2 {
		t.Fatalf("hook fired %d times, want 2", calls)
	}
	if last.Counters["c"] != 7 {
		t.Errorf("hook snapshot counter = %d, want 7", last.Counters["c"])
	}
}

// TestRunsAndHealthz covers the non-metrics endpoints.
func TestRunsAndHealthz(t *testing.T) {
	s := New(testObserver(), Options{})
	s.AddRun(RunInfo{ID: "r1", Command: "experiments", Args: []string{"-quick"}, Start: time.Now(), Status: "running"})
	s.SetRunStatus("r1", "done")
	s.SetRunStatus("missing", "failed") // unknown ID: ignored

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("/healthz = %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(srv.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Runs []RunInfo `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Runs) != 1 || out.Runs[0].ID != "r1" || out.Runs[0].Status != "done" {
		t.Errorf("/runs = %+v", out.Runs)
	}

	resp, err = http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("/debug/pprof/ status = %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("/nope status = %d, want 404", resp.StatusCode)
	}
}

// TestStartClose: Start binds an ephemeral port, /metrics is reachable
// over real TCP, and Close shuts everything down.
func TestStartClose(t *testing.T) {
	s := New(testObserver(), Options{Interval: 10 * time.Millisecond})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "chameleon_mc_worlds_sampled 1000") {
		t.Errorf("served metrics missing counter; got:\n%s", body)
	}
	time.Sleep(30 * time.Millisecond) // let the ticker fire at least once
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("server still reachable after Close")
	}
	if err := s.Close(); err != nil { // idempotent
		t.Errorf("second Close: %v", err)
	}
}

// TestCloseDrainsInFlightRequest: Close shuts down gracefully, so a
// request already being served completes instead of being cut off
// mid-response.
func TestCloseDrainsInFlightRequest(t *testing.T) {
	s := New(testObserver(), Options{Interval: time.Hour})
	entered := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "done")
	})
	// Start with the instrumented mux in place of the default handler.
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.srv.Handler = mux

	body := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/slow")
		if err != nil {
			body <- "error: " + err.Error()
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		body <- string(b)
	}()
	<-entered

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	// Give Close a moment to enter its drain, then let the handler finish
	// well inside the shutdown window.
	time.Sleep(20 * time.Millisecond)
	close(release)

	if err := <-closed; err != nil {
		t.Fatalf("Close during in-flight request: %v", err)
	}
	if got := <-body; got != "done" {
		t.Errorf("in-flight response = %q, want %q (request was cut off)", got, "done")
	}
}

// TestCloseReportsServeError: a listener that dies mid-run is surfaced
// by Close instead of being swallowed by the Serve goroutine.
func TestCloseReportsServeError(t *testing.T) {
	s := New(testObserver(), Options{Interval: time.Hour})
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	// Kill the listener out from under Serve: Serve returns a non-
	// ErrServerClosed accept error, which Close must report (Close joins
	// it with whatever its own shutdown saw). Wait until Serve has
	// actually observed the dead listener — if Close's Shutdown wins the
	// race, Serve returns ErrServerClosed and the fault is lost.
	s.lis.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		got := s.serveErr
		s.mu.Unlock()
		if got != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Serve never observed the closed listener")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err == nil {
		t.Error("Close returned nil after the listener died under Serve")
	}
}

// TestNilServerSafety: every method on a nil *Server is a usable no-op,
// matching the obs nil-disables-everything contract.
func TestNilServerSafety(t *testing.T) {
	var s *Server
	if h := s.Handler(); h != nil {
		t.Error("nil server Handler() != nil")
	}
	if addr, err := s.Start(":0"); addr != "" || err != nil {
		t.Errorf("nil server Start = %q, %v", addr, err)
	}
	s.Poll()
	if r := s.Rates(); len(r) != 0 {
		t.Errorf("nil server Rates = %v", r)
	}
	s.AddRun(RunInfo{ID: "x"})
	s.SetRunStatus("x", "done")
	if err := s.Close(); err != nil {
		t.Errorf("nil server Close: %v", err)
	}
}

// TestNoDuplicateMetricNames: distinct registry names that sanitize or
// expand to the same exposition name must yield exactly one family — a
// repeated # TYPE line or sample name aborts a Prometheus scrape. The
// colliding inputs here are a gauge shadowing a quality stream's _stderr
// expansion (the recordQuality-vs-expansion hazard), two gauges that
// sanitize identically, a counter whose _per_second rate gauge lands on
// an existing gauge name, and a gauge taking a latency's _count name.
func TestNoDuplicateMetricNames(t *testing.T) {
	o := obs.NewObserver()
	r := o.Registry()
	q := r.Quality("mc.quality.ERR")
	q.Observe(1)
	q.Observe(3)
	r.Gauge("mc.quality.ERR.stderr").Set(99)  // collides with the stream's _stderr expansion
	r.Gauge("dotted.name").Set(1)             // and its underscore twin:
	r.Gauge("dotted_name").Set(2)             //   both sanitize to dotted_name
	r.Counter("work.items").Add(5)            // rate gauge work_items_per_second ...
	r.Gauge("work.items_per_second").Set(123) // ... collides with this gauge
	r.Latency("core.genobf_seconds").Observe(time.Second)
	r.Gauge("core.genobf_seconds_count").Set(7) // takes the summary's _count

	var sb strings.Builder
	err := WritePrometheus(&sb, "ns", o.Registry().Snapshot(), map[string]float64{"work.items": 2.5})
	if err != nil {
		t.Fatal(err)
	}
	typed := map[string]bool{}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(sb.String(), "\n"), "\n") {
		if tm := typeLine.FindStringSubmatch(line); tm != nil {
			if typed[tm[1]] {
				t.Errorf("duplicate # TYPE for metric %s", tm[1])
			}
			typed[tm[1]] = true
			continue
		}
		m := metricLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed line: %q", line)
			continue
		}
		if seen[m[1]+m[2]] {
			t.Errorf("duplicate sample %s%s", m[1], m[2])
		}
		seen[m[1]+m[2]] = true
	}
	// First family in emission order wins: the gauge beats the quality
	// expansion and the rate, the lexically first gauge beats its twin.
	if !strings.Contains(sb.String(), "ns_mc_quality_ERR_stderr 99\n") {
		t.Error("gauge did not win the colliding mc_quality_ERR_stderr name")
	}
	if !strings.Contains(sb.String(), "ns_work_items_per_second 123\n") {
		t.Error("gauge did not win the colliding work_items_per_second name")
	}
	if !seen["ns_mc_quality_ERR_mean"] {
		t.Error("non-colliding quality expansion suffixes were dropped")
	}
	// The summary family is claimed as a whole: losing its _count to the
	// gauge drops every line of it, never a partial family.
	if !strings.Contains(sb.String(), "ns_core_genobf_seconds_count 7\n") {
		t.Error("gauge did not win the colliding core_genobf_seconds_count name")
	}
	if typed["ns_core_genobf_seconds"] || seen["ns_core_genobf_seconds_sum"] {
		t.Error("summary family partially emitted next to a gauge holding its _count")
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"mc.worlds_sampled":    "mc_worlds_sampled",
		"err.stderr.mean":      "err_stderr_mean",
		"weird name-with.char": "weird_name_with_char",
		"already_ok:name":      "already_ok:name",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestTraceEndpoint: /trace serves the observer's span trees as JSON;
// running spans carry running=true with a live duration, ended spans their
// frozen one.
func TestTraceEndpoint(t *testing.T) {
	o := testObserver()
	root := o.StartSpan("anonymize")
	g := root.StartChild("genobf")
	g.SetAttr("sigma", 0.5)
	time.Sleep(time.Millisecond)
	g.End()
	root.StartChild("bisection") // still running

	s := New(o, Options{})
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/trace", nil))
	if rr.Code != 200 {
		t.Fatalf("/trace status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var payload struct {
		At    time.Time           `json:"at"`
		Spans []*obs.SpanSnapshot `json:"spans"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &payload); err != nil {
		t.Fatalf("/trace body: %v\n%s", err, rr.Body.String())
	}
	if payload.At.IsZero() || len(payload.Spans) != 1 {
		t.Fatalf("payload = at %v, %d spans", payload.At, len(payload.Spans))
	}
	tree := payload.Spans[0]
	if !tree.Running || tree.DurationNS <= 0 {
		t.Fatalf("root must be running with live duration: %+v", tree)
	}
	gs := tree.Find("genobf")
	if gs == nil || gs.Running || gs.DurationNS <= 0 {
		t.Fatalf("genobf snapshot = %+v", gs)
	}
	if v, ok := gs.Attrs["sigma"]; !ok || v != 0.5 {
		t.Fatalf("genobf attrs = %v", gs.Attrs)
	}
	if bs := tree.Find("bisection"); bs == nil || !bs.Running {
		t.Fatalf("bisection snapshot = %+v", bs)
	}
}

// TestBuildInfoAndRuntimeMetrics: /metrics carries the build_info identity
// gauge always, and the Go runtime gauges once a differ tick has sampled
// them.
func TestBuildInfoAndRuntimeMetrics(t *testing.T) {
	o := testObserver()
	s := New(o, Options{})
	scrape := func() string {
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
		return rr.Body.String()
	}

	body := scrape()
	if !strings.Contains(body, `chameleon_build_info{version="`) ||
		!strings.Contains(body, `go_version="go`) ||
		!strings.Contains(body, `gomaxprocs="`) {
		t.Fatalf("/metrics missing build_info labels:\n%s", body)
	}

	s.Poll()
	body = scrape()
	for _, name := range []string{
		"chameleon_runtime_goroutines",
		"chameleon_runtime_heap_bytes",
		"chameleon_runtime_gomaxprocs",
	} {
		if !strings.Contains(body, name+" ") {
			t.Fatalf("/metrics missing %s after a poll:\n%s", name, body)
		}
	}
}

// TestRunsProgress: a running record surfaces the run.progress and
// run.eta_seconds gauges; finished records do not, and nothing is
// reported before the gauges exist (no registry pollution via the
// gauge getter).
func TestRunsProgress(t *testing.T) {
	o := testObserver()
	s := New(o, Options{})
	s.AddRun(RunInfo{ID: "r1", Command: "anonymize", Start: time.Now(), Status: "running"})
	s.AddRun(RunInfo{ID: "r0", Command: "anonymize", Start: time.Now().Add(-time.Hour), Status: "done"})

	fetch := func() []RunInfo {
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/runs", nil))
		var payload struct {
			Runs []RunInfo `json:"runs"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &payload); err != nil {
			t.Fatalf("/runs body: %v", err)
		}
		return payload.Runs
	}

	for _, r := range fetch() {
		if r.Progress != 0 || r.ETASeconds != 0 {
			t.Fatalf("progress shown before any gauge exists: %+v", r)
		}
	}
	if _, ok := o.Registry().Snapshot().Gauges[obs.ProgressGauge]; ok {
		t.Fatal("/runs serving minted the progress gauge into the registry")
	}

	o.Registry().Gauge(obs.ProgressGauge).Set(0.62)
	o.Registry().Gauge(obs.ETAGauge).Set(14.5)
	runs := fetch()
	if len(runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(runs))
	}
	// Sorted by start: r0 (done) first, r1 (running) second.
	if runs[0].ID != "r0" || runs[0].Progress != 0 || runs[0].ETASeconds != 0 {
		t.Fatalf("done record must not carry progress: %+v", runs[0])
	}
	if runs[1].ID != "r1" || runs[1].Progress != 0.62 || runs[1].ETASeconds != 14.5 {
		t.Fatalf("running record progress = %+v", runs[1])
	}
}

// TestTraceServingConcurrentWithSpanMutation hammers /trace (and /metrics)
// while other goroutines start, attribute and end spans in the same trees
// — the live mid-run serving path. Meaningful under -race, which the
// check.sh double-count pass runs over this package.
func TestTraceServingConcurrentWithSpanMutation(t *testing.T) {
	o := obs.NewObserver()
	s := New(o, Options{})
	handler := s.Handler()
	root := o.StartSpan("anonymize")

	// Writers stop CREATING spans after maxChildren each — children are
	// never removed from their parent, so an unbounded creation loop makes
	// every snapshot deep-copy (and JSON-marshal) an ever-growing tree and
	// the test goes quadratic under -race. Past the cap they keep mutating
	// attributes of live spans, so every scrape below still races against
	// concurrent StartChild/SetAttr/End traffic.
	const (
		writers     = 4
		maxChildren = 512
	)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			phase := root.StartChild("phase")
			for i := 0; ; i++ {
				select {
				case <-done:
					phase.End()
					return
				default:
				}
				if i < maxChildren {
					g := phase.StartChild("genobf")
					g.SetAttr("sigma", float64(i))
					a := g.StartChild("attempt")
					a.SetAttr("ok", i%2 == 0)
					a.End()
					g.End()
				} else {
					phase.SetAttr("sigma", float64(i))
				}
				o.Registry().Counter("core.genobf_calls").Add(1)
			}
		}(w)
	}

	for i := 0; i < 50; i++ {
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, httptest.NewRequest("GET", "/trace", nil))
		if rr.Code != 200 {
			t.Fatalf("/trace status = %d", rr.Code)
		}
		var payload struct {
			Spans []*obs.SpanSnapshot `json:"spans"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &payload); err != nil {
			t.Fatalf("mid-run /trace body invalid: %v", err)
		}
		if len(payload.Spans) != 1 || payload.Spans[0].Name != "anonymize" {
			t.Fatalf("mid-run /trace spans = %+v", payload.Spans)
		}
		s.Poll()
		rr = httptest.NewRecorder()
		handler.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
		if rr.Code != 200 {
			t.Fatalf("/metrics status = %d", rr.Code)
		}
	}
	close(done)
	wg.Wait()
	root.End()

	rr := httptest.NewRecorder()
	handler.ServeHTTP(rr, httptest.NewRequest("GET", "/trace", nil))
	var payload struct {
		Spans []*obs.SpanSnapshot `json:"spans"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Spans[0].Running {
		t.Fatal("ended root still reported running")
	}
	if got := len(payload.Spans[0].Children); got != writers {
		t.Fatalf("phases = %d, want %d", got, writers)
	}
}
