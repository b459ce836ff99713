package chameleon

import (
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"chameleon/internal/exp"
	"chameleon/internal/jobs"
)

// rejectRows is the one table of invalid run specs. Every surface that
// takes a run spec (the facade, the chameleon CLI, POST /jobs and the
// experiments CLI) must refuse each row, naming the offending field.
var rejectRows = []struct {
	name  string
	field string         // the field every surface's error names
	opts  func(*Options) // the facade's spelling
	flags []string       // the chameleon CLI's spelling
	spec  string         // the job plane's spelling (JSON members)
	// expFlags is the experiments CLI's spelling; nil where it has no
	// such flag (its k, ε and method grid is the paper's, fixed).
	expFlags []string
}{
	{"k=1", "k", func(o *Options) { o.K = 1 }, []string{"-k", "1"}, `"k": 1`, nil},
	{"eps=1", "epsilon", func(o *Options) { o.Epsilon = 1 }, []string{"-eps", "1"}, `"eps": 1`, nil},
	{"unknown method", "method", func(o *Options) { o.Method = "bogus" },
		[]string{"-method", "bogus"}, `"method": "bogus"`, nil},
	{"unknown sampling mode", "sampling mode", func(o *Options) { o.SamplingMode = "bogus" },
		[]string{"-sampling-mode", "bogus"}, `"sampling_mode": "bogus"`, []string{"-sampling-mode", "bogus"}},
	{"samples=-1", "samples", func(o *Options) { o.Samples = -1 },
		[]string{"-samples", "-1"}, `"samples": -1`, []string{"-samples", "-1"}},
	{"target_rse=1.5", "target_rse", func(o *Options) { o.TargetRSE = 1.5 },
		[]string{"-target-rse", "1.5"}, `"target_rse": 1.5`, []string{"-target-rse", "1.5"}},
	{"max_samples without target_rse", "max_samples", func(o *Options) { o.MaxSamples = 100 },
		[]string{"-max-samples", "100"}, `"max_samples": 100`, []string{"-max-samples", "100"}},
}

// namesField reports whether msg names field as a whole word.
func namesField(msg, field string) bool {
	return regexp.MustCompile(`\b` + regexp.QuoteMeta(field) + `\b`).MatchString(msg)
}

// validSpecOptions is a spec every surface accepts; each row breaks one
// field of it.
func validSpecOptions() Options {
	return Options{K: 5, Epsilon: 0.05, Samples: 50, Seed: 7}
}

func TestEverySurfaceRejectsTheSameSpecs(t *testing.T) {
	g := smallTestGraph(t)
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.tsv")
	if err := SaveGraph(graphPath, g); err != nil {
		t.Fatal(err)
	}

	// The valid base spec passes the facade, so each rejection below is
	// the row's doing.
	if _, err := Anonymize(g, validSpecOptions()); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	store, err := jobs.NewStore(filepath.Join(dir, "spool"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	api := jobs.NewAPI(jobs.NewManager(jobs.Config{Store: store}))

	var bins map[string]string
	if !testing.Short() {
		if _, err := exec.LookPath("go"); err == nil {
			bins = map[string]string{}
			for _, tool := range []string{"chameleon", "experiments"} {
				bin := filepath.Join(dir, tool)
				if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+tool).CombinedOutput(); err != nil {
					t.Fatalf("building %s: %v\n%s", tool, err, out)
				}
				bins[tool] = bin
			}
		}
	}

	for _, row := range rejectRows {
		t.Run(row.name, func(t *testing.T) {
			o := validSpecOptions()
			row.opts(&o)
			if _, err := Anonymize(g, o); err == nil || !namesField(err.Error(), row.field) {
				t.Errorf("facade: err = %v, want a rejection naming %q", err, row.field)
			}

			body := `{"k": 5, "eps": 0.05, "samples": 50, "seed": 7, "graph_path": ` +
				`"` + filepath.ToSlash(graphPath) + `", ` + row.spec + `}`
			// The row's member comes last; a repeated JSON key takes the
			// last value.
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			api.ServeHTTP(rec, req)
			if rec.Code != http.StatusBadRequest || !namesField(rec.Body.String(), row.field) {
				t.Errorf("POST /jobs: %d %s, want 400 naming %q", rec.Code, rec.Body, row.field)
			}

			if bins == nil {
				return
			}
			args := append([]string{"-in", graphPath, "-out", filepath.Join(t.TempDir(), "anon.tsv"),
				"-k", "5", "-eps", "0.05", "-samples", "50", "-q"}, row.flags...)
			out, err := exec.Command(bins["chameleon"], args...).CombinedOutput()
			if err == nil || !namesField(string(out), row.field) {
				t.Errorf("chameleon CLI: err = %v, output %q; want a non-zero exit naming %q", err, out, row.field)
			}

			if row.expFlags == nil {
				return
			}
			cmd := exec.Command(bins["experiments"], append([]string{"-quick", "-run", "fig8", "-v"}, row.expFlags...)...)
			cmd.Dir = t.TempDir()
			out, err = cmd.CombinedOutput()
			if err == nil || !namesField(string(out), row.field) {
				t.Errorf("experiments: err = %v, output %q; want a non-zero exit naming %q", err, out, row.field)
			}
			if strings.Contains(string(out), "exp: cell") {
				t.Errorf("experiments ran a cell before rejecting the spec:\n%s", out)
			}
		})
	}

	// The sweep's method list is the one run-spec field the experiments
	// CLI does not take from flags; its startup check covers it too.
	if err := (exp.Config{}).Check([]string{"RSME", "bogus"}); err == nil || !namesField(err.Error(), "method") {
		t.Errorf("exp.Config.Check: err = %v, want a rejection naming \"method\"", err)
	}
	if err := (exp.Config{}).Check(exp.Methods); err != nil {
		t.Errorf("exp.Config.Check(exp.Methods) = %v", err)
	}
}
