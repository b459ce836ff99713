package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chameleon/internal/obs"
)

// buildTree makes a realistic two-root span forest: a finished anonymize
// tree with nested genobf/attempt spans, and a second root that is still
// running when it is journaled.
func buildTree(t *testing.T) []*obs.Span {
	t.Helper()
	root := obs.NewSpan("anonymize")
	g := root.StartChild("genobf")
	g.SetAttr("sigma", 0.5)
	a := g.StartChild("attempt")
	a.SetAttr("ok", true)
	time.Sleep(time.Millisecond)
	a.End()
	g.End()
	root.End()

	live := obs.NewSpan("sweep")
	live.StartChild("cell")
	time.Sleep(time.Millisecond)
	return []*obs.Span{root, live}
}

// chromeOf journals roots, runs tracestat -chrome over the journal and
// returns the raw trace file.
func chromeOf(t *testing.T, roots ...*obs.Span) []byte {
	t.Helper()
	out := filepath.Join(t.TempDir(), "trace.json")
	report(t, "-chrome", out, writeJournal(t, roots...))
	return readChrome(t, out)
}

func readChrome(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// countX decodes a trace file and counts its complete ("X") events.
func countX(t *testing.T, data []byte) int {
	t.Helper()
	var f traceFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	n := 0
	for _, e := range f.TraceEvents {
		if e.Ph == "X" {
			n++
		}
	}
	return n
}

// TestChromeTraceSchema validates the -chrome file against the Chrome
// trace-event schema requirements that chrome://tracing and Perfetto
// enforce: a top-level "traceEvents" array, every event with a phase of
// "X" or "M", microsecond ts/dur that are non-negative, complete events
// carrying pid/tid, and names non-empty throughout.
func TestChromeTraceSchema(t *testing.T) {
	data := chromeOf(t, buildTree(t)...)

	// Decode generically: the schema check must see what a viewer sees,
	// not our own structs.
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	rawEvents, ok := doc["traceEvents"]
	if !ok {
		t.Fatal(`trace file missing top-level "traceEvents" key`)
	}
	var unit string
	if err := json.Unmarshal(doc["displayTimeUnit"], &unit); err != nil || (unit != "ms" && unit != "ns") {
		t.Fatalf("displayTimeUnit = %q, want ms or ns", unit)
	}
	var events []map[string]any
	if err := json.Unmarshal(rawEvents, &events); err != nil {
		t.Fatalf("traceEvents is not an array of objects: %v", err)
	}

	var xEvents, mEvents int
	for i, ev := range events {
		name, _ := ev["name"].(string)
		if name == "" {
			t.Fatalf("event %d has no name: %v", i, ev)
		}
		ph, _ := ev["ph"].(string)
		switch ph {
		case "X":
			xEvents++
			ts, ok := ev["ts"].(float64)
			if !ok || ts < 0 {
				t.Fatalf("event %d (%s): ts = %v, want non-negative number", i, name, ev["ts"])
			}
			if dur, ok := ev["dur"].(float64); ok && dur < 0 {
				t.Fatalf("event %d (%s): dur = %v, want >= 0", i, name, dur)
			}
			if _, ok := ev["pid"].(float64); !ok {
				t.Fatalf("event %d (%s) missing pid", i, name)
			}
			if _, ok := ev["tid"].(float64); !ok {
				t.Fatalf("event %d (%s) missing tid", i, name)
			}
		case "M":
			mEvents++
			args, _ := ev["args"].(map[string]any)
			if n, _ := args["name"].(string); n == "" {
				t.Fatalf("metadata event %d missing args.name", i)
			}
		default:
			t.Fatalf("event %d (%s): unexpected phase %q", i, name, ph)
		}
	}
	// 5 spans (anonymize/genobf/attempt + sweep/cell) and 3 metadata
	// events (process_name + one thread_name per root).
	if xEvents != 5 || mEvents != 3 {
		t.Fatalf("events = %d X + %d M, want 5 X + 3 M", xEvents, mEvents)
	}
}

// TestConvertTimelineGeometry checks the timing math on a journaled
// forest: children sit inside their parents, roots are rebased against
// the earliest start, each root has its own named lane, a span still
// running when journaled exports its elapsed duration with a running arg,
// and attrs become args.
func TestConvertTimelineGeometry(t *testing.T) {
	var f traceFile
	if err := json.Unmarshal(chromeOf(t, buildTree(t)...), &f); err != nil {
		t.Fatal(err)
	}
	events := f.TraceEvents
	find := func(ph, name string) traceEvent {
		t.Helper()
		for _, e := range events {
			if e.Ph == ph && e.Name == name {
				return e
			}
		}
		t.Fatalf("no %s event named %s", ph, name)
		return traceEvent{}
	}
	anonymize, genobf, attempt := find("X", "anonymize"), find("X", "genobf"), find("X", "attempt")
	sweep, cell := find("X", "sweep"), find("X", "cell")

	if anonymize.TS != 0 {
		t.Fatalf("earliest root ts = %v, want 0", anonymize.TS)
	}
	if genobf.TS < anonymize.TS || genobf.TS+genobf.Dur > anonymize.TS+anonymize.Dur+1 {
		t.Fatalf("genobf [%v,+%v] escapes anonymize [%v,+%v]",
			genobf.TS, genobf.Dur, anonymize.TS, anonymize.Dur)
	}
	if attempt.TS < genobf.TS {
		t.Fatalf("attempt starts before its parent")
	}
	if anonymize.TID == sweep.TID || anonymize.TID == 0 || sweep.TID == 0 {
		t.Fatalf("roots share a tid: %d vs %d", anonymize.TID, sweep.TID)
	}
	if cell.TID != sweep.TID {
		t.Fatalf("cell tid %d differs from its root's %d", cell.TID, sweep.TID)
	}
	for _, root := range []traceEvent{anonymize, sweep} {
		named := false
		for _, e := range events {
			named = named || (e.Name == "thread_name" && e.TID == root.TID && e.Args["name"] == root.Name)
		}
		if !named {
			t.Fatalf("lane %d of %s has no thread_name named after it", root.TID, root.Name)
		}
	}
	if sweep.TS <= 0 {
		t.Fatalf("later root ts = %v, want > 0 after rebasing", sweep.TS)
	}
	if run, _ := sweep.Args["running"].(bool); !run || sweep.Dur <= 0 {
		t.Fatalf("running root must export running=true with live dur, got %+v", sweep)
	}
	if v, ok := genobf.Args["sigma"]; !ok || v != 0.5 {
		t.Fatalf("span attrs must become args, got %v", genobf.Args)
	}
}

// TestChromeClampsAndSkips covers the degenerate inputs: a child whose
// recorded offset is negative (clock reads race span creation) is clamped
// to its parent's start, nil roots and children are skipped, and a
// journal without spans still converts to a valid empty trace.
func TestChromeClampsAndSkips(t *testing.T) {
	dir := t.TempDir()
	skewed := filepath.Join(dir, "skewed.jsonl")
	line := `{"type":"span","run_id":"r","at":"2026-01-01T00:00:01Z","span":{"name":"anonymize","start":"2026-01-01T00:00:00Z","start_ns":0,"duration_ns":1000000,"children":[{"name":"precompute","start_ns":-5000,"duration_ns":500000}]}}` + "\n"
	if err := os.WriteFile(skewed, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "skewed.json")
	report(t, "-chrome", out, skewed)
	var f traceFile
	if err := json.Unmarshal(readChrome(t, out), &f); err != nil {
		t.Fatal(err)
	}
	for _, e := range f.TraceEvents {
		if e.Name == "precompute" && e.TS != 0 {
			t.Errorf("skewed child ts = %v, want clamped to its parent's 0", e.TS)
		}
	}

	root := obs.NewSpan("anonymize").SnapshotTree()
	root.Children = []*obs.SpanSnapshot{nil}
	events := chromeEvents([]*obs.SpanSnapshot{nil, root, nil})
	if len(events) != 3 || events[1].TID != 1 || events[2].Name != "anonymize" {
		t.Errorf("nil roots and children must be skipped, got %+v", events)
	}

	empty := filepath.Join(dir, "empty.json")
	report(t, "-chrome", empty, writeJournal(t))
	if n := countX(t, readChrome(t, empty)); n != 0 {
		t.Errorf("span-less journal converted to %d X events, want 0", n)
	}
	if !strings.Contains(string(readChrome(t, empty)), `"traceEvents"`) {
		t.Error("empty trace lacks the traceEvents envelope")
	}

	var sink strings.Builder
	if err := run(&sink, []string{"-chrome", filepath.Join(dir, "no/such/dir/x.json"), skewed}); err == nil {
		t.Fatal("unwritable -chrome path must error")
	}
}
