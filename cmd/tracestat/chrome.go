package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"chameleon/internal/obs"
)

// traceEvent is a single Chrome trace event. Only the fields the viewers
// require are modeled: phase "X" (complete, with Dur) for spans and phase
// "M" (metadata) for process/thread naming. TS and Dur are microseconds,
// the native unit of the format.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the "JSON Object Format" envelope that chrome://tracing
// and Perfetto's trace viewer load directly. DisplayTimeUnit hints the
// viewer's default zoom unit.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

const chromePID = 1

// chromeEvents flattens span trees into trace events. Timestamps are
// rebased so the earliest root starts at ts=0; each root gets its own tid
// (1-based, in input order) with a thread_name metadata event, so
// concurrent roots (sweep cells) render as parallel tracks, and a single
// process_name metadata event labels the whole track group. Spans that
// were still running when journaled carry their elapsed duration and a
// running:true arg, so an interrupted run's trace stays truthful. Nil
// roots are skipped.
func chromeEvents(roots []*obs.SpanSnapshot) []traceEvent {
	var base time.Time
	for _, r := range roots {
		if r != nil && (base.IsZero() || r.Start.Before(base)) {
			base = r.Start
		}
	}
	events := []traceEvent{{
		Name: "process_name", Ph: "M", PID: chromePID, TID: 0,
		Args: map[string]any{"name": "chameleon"},
	}}
	tid := 0
	for _, r := range roots {
		if r == nil {
			continue
		}
		tid++
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", PID: chromePID, TID: tid,
			Args: map[string]any{"name": r.Name},
		})
		startUS := float64(r.Start.Sub(base).Nanoseconds()) / 1e3
		events = appendSpanEvents(events, r, startUS, tid)
	}
	return events
}

// appendSpanEvents emits the "X" event for s at absolute time tsUS and
// recurses into children using their parent-relative offsets.
func appendSpanEvents(events []traceEvent, s *obs.SpanSnapshot, tsUS float64, tid int) []traceEvent {
	ev := traceEvent{
		Name: s.Name,
		Cat:  "span",
		Ph:   "X",
		TS:   tsUS,
		Dur:  float64(s.DurationNS) / 1e3,
		PID:  chromePID,
		TID:  tid,
	}
	if len(s.Attrs) > 0 || s.Running {
		ev.Args = make(map[string]any, len(s.Attrs)+1)
		for k, v := range s.Attrs {
			ev.Args[k] = v
		}
		if s.Running {
			ev.Args["running"] = true
		}
	}
	events = append(events, ev)
	for _, c := range s.Children {
		if c == nil {
			continue
		}
		// Offsets are measured against the parent's start; clamp tiny
		// negative skew (clock reads race span creation) so viewers never
		// see a child left of its parent.
		events = appendSpanEvents(events, c, max(tsUS, tsUS+float64(c.StartNS)/1e3), tid)
	}
	return events
}

// writeChrome writes the trace-event file for roots to path, creating or
// truncating it. No roots still make a valid (empty) trace.
func writeChrome(path string, roots []*obs.SpanSnapshot) error {
	data, err := json.MarshalIndent(traceFile{
		TraceEvents:     chromeEvents(roots),
		DisplayTimeUnit: "ms",
	}, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		return fmt.Errorf("-chrome: %w", err)
	}
	return nil
}
