package journal

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"chameleon/internal/obs"
	"chameleon/internal/obs/expose"
)

func populatedObserver() *obs.Observer {
	o := obs.NewObserver()
	r := o.Registry()
	r.Counter("mc.worlds_sampled").Add(512)
	r.Gauge("err.stderr.mean").Set(0.03125)
	l := r.Latency("core.genobf_seconds")
	for _, d := range []time.Duration{2 * time.Millisecond, 20 * time.Millisecond, 200 * time.Millisecond, 2 * time.Second} {
		l.Observe(d)
	}
	q := r.Quality("mc.quality.ExpectedConnectedPairs")
	for _, v := range []float64{10, 12, 11, 9, 8} {
		q.Observe(v)
	}
	return o
}

// TestRoundTrip is the acceptance-criterion test: a journal written from
// live snapshots replays into IDENTICAL snapshot structs.
func TestRoundTrip(t *testing.T) {
	o := populatedObserver()
	snap1 := o.Registry().Snapshot()
	o.Registry().Counter("mc.worlds_sampled").Add(100)
	snap2 := o.Registry().Snapshot()

	span := obs.NewSpan("anonymize")
	child := span.StartChild("sigma-search")
	child.SetAttr("sigma", 0.5)
	child.End()
	span.End()

	var buf bytes.Buffer
	w := NewWriter(&buf)
	t0 := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	id, err := w.Begin("experiments", []string{"-quick", "-serve", ":9100"}, t0)
	if err != nil {
		t.Fatal(err)
	}
	if id == "" || w.RunID() != id {
		t.Fatalf("Begin run ID = %q, writer holds %q", id, w.RunID())
	}
	rates := map[string]float64{"mc.worlds_sampled": 51.2}
	if err := w.WriteSnapshot(t0.Add(5*time.Second), snap1, rates); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSnapshot(t0.Add(10*time.Second), snap2, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSpan(t0.Add(11*time.Second), span.SnapshotTree()); err != nil {
		t.Fatal(err)
	}
	if err := w.End(t0.Add(12*time.Second), "done", snap2); err != nil {
		t.Fatal(err)
	}

	runs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("replayed %d runs, want 1", len(runs))
	}
	run := runs[0]
	if run.ID != id || run.Command != "experiments" || run.Status != "done" {
		t.Errorf("run identity = %+v", run)
	}
	if !reflect.DeepEqual(run.Args, []string{"-quick", "-serve", ":9100"}) {
		t.Errorf("args = %v", run.Args)
	}
	if !run.Start.Equal(t0) || !run.End.Equal(t0.Add(12*time.Second)) {
		t.Errorf("start/end = %v / %v", run.Start, run.End)
	}

	if len(run.Snapshots) != 2 {
		t.Fatalf("replayed %d snapshots, want 2", len(run.Snapshots))
	}
	if !reflect.DeepEqual(run.Snapshots[0].Snapshot, snap1) {
		t.Errorf("snapshot 1 not identical:\ngot  %+v\nwant %+v", run.Snapshots[0].Snapshot, snap1)
	}
	if !reflect.DeepEqual(run.Snapshots[0].Rates, rates) {
		t.Errorf("rates = %v, want %v", run.Snapshots[0].Rates, rates)
	}
	if !reflect.DeepEqual(run.Snapshots[1].Snapshot, snap2) {
		t.Errorf("snapshot 2 not identical")
	}
	if run.Final == nil || !reflect.DeepEqual(*run.Final, snap2) {
		t.Errorf("final snapshot not identical")
	}

	// Spans round-trip up to JSON equivalence (Attrs values decode as
	// generic JSON numbers).
	if len(run.Spans) != 1 {
		t.Fatalf("replayed %d spans, want 1", len(run.Spans))
	}
	wantSpan, _ := json.Marshal(span.SnapshotTree())
	gotSpan, _ := json.Marshal(run.Spans[0])
	if !bytes.Equal(wantSpan, gotSpan) {
		t.Errorf("span round-trip:\ngot  %s\nwant %s", gotSpan, wantSpan)
	}
}

// TestRunningSpan: a span still open when it is journaled (the deadline
// and interrupt paths) replays as running, with the time it had run so
// far and its absolute start, not the zero duration of an unended span.
func TestRunningSpan(t *testing.T) {
	root := obs.NewSpan("anonymize")
	genobf := root.StartChild("genobf")
	time.Sleep(time.Millisecond)

	var buf bytes.Buffer
	w := NewWriter(&buf)
	if _, err := w.Begin("chameleon", nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSpan(time.Now(), root.SnapshotTree()); err != nil {
		t.Fatal(err)
	}
	genobf.End()
	runs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || len(runs[0].Spans) != 1 {
		t.Fatalf("replayed %d runs, want 1 with 1 span", len(runs))
	}
	got := runs[0].Spans[0]
	if !got.Running || got.DurationNS <= 0 {
		t.Errorf("journaled open root = running %v, duration %d ns; want running with a duration above 0", got.Running, got.DurationNS)
	}
	if len(got.Children) != 1 || !got.Children[0].Running || got.Children[0].DurationNS <= 0 {
		t.Errorf("journaled open child = %+v, want running with a duration above 0", got.Children)
	}
	if got.Start.IsZero() {
		t.Error("journaled span lost its absolute start")
	}
}

// TestOldSpanRecord: span records written before they carried an
// absolute start or a running flag still decode, placed on the clock so
// they end at the record's time.
func TestOldSpanRecord(t *testing.T) {
	line := `{"type":"span","run_id":"r","at":"2026-01-01T00:00:02Z","span":{"name":"anonymize","start_ns":0,"duration_ns":120000000,"attrs":{"k":20},"children":[{"name":"precompute","start_ns":0,"duration_ns":30000000}]}}` + "\n"
	runs, err := Read(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || len(runs[0].Spans) != 1 {
		t.Fatalf("replayed %d runs, want 1 with 1 span", len(runs))
	}
	got := runs[0].Spans[0]
	if got.Name != "anonymize" || got.DurationNS != 120000000 || got.Running || got.Attrs["k"] != 20.0 {
		t.Errorf("old span = %+v", got)
	}
	if want := time.Date(2026, 1, 1, 0, 0, 1, 880000000, time.UTC); !got.Start.Equal(want) {
		t.Errorf("old span start = %v, want %v (record time less duration)", got.Start, want)
	}
	if len(got.Children) != 1 || got.Children[0].Name != "precompute" || got.Children[0].DurationNS != 30000000 {
		t.Errorf("old span children = %+v", got.Children)
	}
}

// TestRoundTripExtremeFloats: the snapshot clamps +Inf RSE to
// MaxFloat64 precisely so journal lines stay valid JSON; make sure that
// value survives the trip bit-exactly.
func TestRoundTripExtremeFloats(t *testing.T) {
	o := obs.NewObserver()
	q := o.Registry().Quality("noise.around.zero")
	q.Observe(-1)
	q.Observe(1)
	snap := o.Registry().Snapshot()
	if snap.Quality["noise.around.zero"].RelStdErr != math.MaxFloat64 {
		t.Fatalf("precondition: RSE = %v, want MaxFloat64", snap.Quality["noise.around.zero"].RelStdErr)
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	if _, err := w.Begin("t", nil, time.Unix(0, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	if err := w.End(time.Unix(1, 0).UTC(), "done", snap); err != nil {
		t.Fatal(err)
	}
	runs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*runs[0].Final, snap) {
		t.Errorf("extreme-float snapshot not identical after replay")
	}
}

// TestFileAppendAcrossRuns: Open appends, so sequential runs accumulate
// in one journal file and replay as distinct runs in order.
func TestFileAppendAcrossRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	t0 := time.Date(2026, 8, 6, 9, 0, 0, 0, time.UTC)
	var ids []string
	for i := 0; i < 2; i++ {
		w, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		id, err := w.Begin("chameleon", nil, t0.Add(time.Duration(i)*time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if err := w.End(t0.Add(time.Duration(i)*time.Minute+30*time.Second), "done", obs.Snapshot{}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("replayed %d runs, want 2", len(runs))
	}
	for i, run := range runs {
		if run.ID != ids[i] {
			t.Errorf("run %d ID = %q, want %q", i, run.ID, ids[i])
		}
		if run.Status != "done" {
			t.Errorf("run %d status = %q", i, run.Status)
		}
	}
	if ids[0] == ids[1] {
		t.Errorf("run IDs collide: %q", ids[0])
	}
}

// TestExposeHookIntegration: the writer's WriteSnapshot slots straight
// into the expose differ's OnSnapshot hook, journaling every tick.
func TestExposeHookIntegration(t *testing.T) {
	o := populatedObserver()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if _, err := w.Begin("experiments", nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	srv := expose.New(o, expose.Options{OnSnapshot: func(at time.Time, s obs.Snapshot, r map[string]float64) {
		w.WriteSnapshot(at, s, r)
	}})
	srv.Poll()
	o.Registry().Counter("mc.worlds_sampled").Add(64)
	srv.Poll()
	if err := w.End(time.Now(), "done", o.Registry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	runs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || len(runs[0].Snapshots) != 2 {
		t.Fatalf("runs=%d snapshots=%d, want 1 run with 2 snapshots", len(runs), len(runs[0].Snapshots))
	}
	if got := runs[0].Snapshots[1].Snapshot.Counters["mc.worlds_sampled"]; got != 576 {
		t.Errorf("tick-2 counter = %d, want 576", got)
	}
}

// TestTruncatedAndMalformed: replay tolerates a run with no end record,
// and reports malformed lines with their line number.
func TestTruncatedAndMalformed(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if _, err := w.Begin("experiments", nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	runs, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Status != "running" {
		t.Errorf("truncated journal: %+v", runs)
	}

	if _, err := Read(strings.NewReader("{not json\n")); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("malformed line error = %v, want line-numbered error", err)
	}
	if _, err := Read(strings.NewReader(`{"type":"wat","run_id":"x"}` + "\n")); err == nil || !strings.Contains(err.Error(), "wat") {
		t.Errorf("unknown type error = %v", err)
	}

	// Payload-less snapshot and span records are malformed, not nil
	// entries: a nil in Run.Snapshots/Run.Spans would surface as "null" in
	// tracestat -json and panic any consumer that dereferences it.
	if _, err := Read(strings.NewReader(`{"type":"snapshot","run_id":"x"}` + "\n")); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("snapshot-without-snapshot error = %v, want line-numbered error", err)
	}
	if _, err := Read(strings.NewReader(`{"type":"span","run_id":"x"}` + "\n")); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("span-without-span error = %v, want line-numbered error", err)
	}
}

// TestEndWithError: the end record's error message survives the round
// trip, and runs with/without an end record are told apart by Truncated.
func TestEndWithError(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if _, err := w.Begin("chameleon", nil, time.Unix(10, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	if err := w.EndWithError(time.Unix(20, 0).UTC(), "interrupted", "signal: interrupt", obs.Snapshot{}); err != nil {
		t.Fatal(err)
	}
	runs, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	run := runs[0]
	if run.Status != "interrupted" || run.Error != "signal: interrupt" {
		t.Errorf("run = status %q error %q, want interrupted / signal: interrupt", run.Status, run.Error)
	}
	if run.Truncated() {
		t.Error("run with an end record reported as truncated")
	}

	// A journal that stops mid-run has no end record: truncated.
	var cut bytes.Buffer
	w2 := NewWriter(&cut)
	if _, err := w2.Begin("chameleon", nil, time.Unix(30, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	runs, err = Read(bytes.NewReader(cut.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !runs[0].Truncated() || runs[0].Status != "running" {
		t.Errorf("end-less run = truncated %v status %q, want true/running", runs[0].Truncated(), runs[0].Status)
	}
}

// TestNilWriterSafety: every method on a nil *Writer no-ops, so the CLIs
// journal unconditionally.
func TestNilWriterSafety(t *testing.T) {
	var w *Writer
	if id, err := w.Begin("x", nil, time.Now()); id != "" || err != nil {
		t.Errorf("nil Begin = %q, %v", id, err)
	}
	if w.RunID() != "" {
		t.Error("nil RunID != \"\"")
	}
	if err := w.WriteSnapshot(time.Now(), obs.Snapshot{}, nil); err != nil {
		t.Errorf("nil WriteSnapshot: %v", err)
	}
	if err := w.WriteSpan(time.Now(), obs.NewSpan("s").SnapshotTree()); err != nil {
		t.Errorf("nil WriteSpan: %v", err)
	}
	if err := w.End(time.Now(), "done", obs.Snapshot{}); err != nil {
		t.Errorf("nil End: %v", err)
	}
	if err := w.EndWithError(time.Now(), "failed", "boom", obs.Snapshot{}); err != nil {
		t.Errorf("nil EndWithError: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}
