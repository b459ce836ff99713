package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden snapshot files")

// goldenObserver builds a fully deterministic observer state: fixed metric
// values and a span tree with hand-set offsets/durations.
func goldenObserver() *Observer {
	o := NewObserver()
	r := o.Registry()
	r.Counter("core.genobf_calls").Add(18)
	r.Counter("mc.worlds_sampled").Add(3000)
	r.Gauge("core.sigma").Set(0.03125)
	q := r.Quality("mc.quality.ExpectedConnectedPairs")
	for _, v := range []float64{100, 104, 96, 102, 98} {
		q.Observe(v)
	}
	lat := r.Latency("query.latency.all")
	for i := int64(1); i <= 100; i++ {
		lat.ObserveNS(i * 100_000) // 0.1ms .. 10ms ramp
	}

	attempt := &Span{
		Name:       "attempt",
		StartNS:    1_000,
		DurationNS: 40_000,
		Attrs:      map[string]any{"epsilon_tilde": 0.01, "ok": true, "injected_edges": 12},
	}
	genobf := &Span{
		Name:       "genobf",
		StartNS:    5_000,
		DurationNS: 50_000,
		Attrs:      map[string]any{"sigma": 0.5},
		Children:   []*Span{attempt},
	}
	root := &Span{
		Name:       "anonymize",
		StartNS:    0,
		DurationNS: 100_000,
		Children:   []*Span{genobf},
	}
	o.AttachSpan(root)
	return o
}

// TestSnapshotGolden locks the JSON and text export formats against
// testdata goldens (refresh with `go test ./internal/obs -run Golden -update`).
func TestSnapshotGolden(t *testing.T) {
	o := goldenObserver()
	cases := []struct {
		file  string
		write func(*bytes.Buffer) error
	}{
		{"snapshot.json", func(b *bytes.Buffer) error { return o.WriteJSON(b) }},
		{"snapshot.txt", func(b *bytes.Buffer) error { return o.WriteText(b) }},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			var buf bytes.Buffer
			if err := c.write(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", c.file)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("snapshot drifted from golden %s:\n--- got ---\n%s\n--- want ---\n%s",
					path, buf.Bytes(), want)
			}
		})
	}
}

// TestSnapshotStableAcrossCalls: two snapshots of an unchanged observer
// must serialize identically (map ordering must not leak through).
func TestSnapshotStableAcrossCalls(t *testing.T) {
	o := goldenObserver()
	var a, b bytes.Buffer
	if err := o.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("JSON snapshot is not deterministic")
	}
}
