package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// toySizes shrink every workload to a fraction of a second.
var toySizes = sizes{
	precomputeNodes: 3000,
	searchNodes:     200,
	jobNodes:        120,
	jobs:            3,
	queryNodes:      150,
	queryWorlds:     64,
}

// inProcess runs a round in the test process instead of a child.
func inProcess(_ context.Context, a childArgs) (*roundResult, error) { return runChild(a) }

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads(toySizes) {
		for _, trace := range []bool{false, true} {
			name := w.name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				cfg := runConfig{seed: 5, seconds: 0.3, trace: trace, root: t.TempDir()}
				res, err := runWorkload(context.Background(), w, cfg, inProcess)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct %v, %d failed of %d attempted", res.Correct, res.Failed, res.Attempted)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s = %+v, want unit %s", d.name, m, d.unit)
					}
					if !trace && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json in step
// with the workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []def
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads(fullSizes) {
		names = append(names, w.name)
	}
	if len(b.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(names))
	}
	for i, w := range b.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, names[i])
		}
	}
	for _, c := range []struct {
		got  []def
		want []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(c.got), len(c.want))
			continue
		}
		for i, d := range c.want {
			if c.got[i].Name != d.name || c.got[i].Unit != d.unit {
				t.Errorf("metric %d is %+v in BENCHMARK.json, {%s %s} here", i, c.got[i], d.name, d.unit)
			}
		}
	}
}
