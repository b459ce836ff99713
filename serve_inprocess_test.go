package chameleon

import (
	"net/http/httptest"
	"strings"
	"testing"

	"chameleon/internal/exp"
	"chameleon/internal/obs/expose"
)

// TestMetricsScrapeDuringRun drives the telemetry endpoint in-process
// while a quick experiment sweep runs, using the expose.Server.Poll()
// test hook instead of wall-clock waits: every loop iteration forces one
// differ tick and scrapes the handler directly, and a final Poll+scrape
// after completion makes the quality-gauge assertions deterministic — the
// sweep's metrics are all committed by then, so the test cannot flake on
// scheduling (e.g. under -race) the way a timed subprocess scrape loop
// can.
func TestMetricsScrapeDuringRun(t *testing.T) {
	o := NewObserver()
	srv := expose.New(o, expose.Options{})
	handler := srv.Handler()
	scrape := func() string {
		t.Helper()
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
		if rr.Code != 200 {
			t.Fatalf("/metrics status = %d", rr.Code)
		}
		return rr.Body.String()
	}
	checkBody := func(body string) {
		t.Helper()
		if !strings.Contains(body, "chameleon_uptime_seconds") {
			t.Fatalf("/metrics body missing uptime gauge:\n%s", body)
		}
		// A repeated # TYPE line aborts a real Prometheus scrape (the
		// quality-stream expansion and the estimator's last-call gauges
		// must never land on the same name).
		typed := map[string]bool{}
		for _, line := range strings.Split(body, "\n") {
			name, ok := strings.CutPrefix(line, "# TYPE ")
			if !ok {
				continue
			}
			name, _, _ = strings.Cut(name, " ")
			if typed[name] {
				t.Fatalf("/metrics scrape has duplicate # TYPE for %s", name)
			}
			typed[name] = true
		}
	}

	done := make(chan error, 1)
	go func() {
		cfg := exp.Config{Quick: true, Samples: 60, Seed: 5, Obs: o}
		_, _, err := cfg.SweepAll([]string{"RSME", "Rep-An"}) // Figure 4's cells
		done <- err
	}()

	// Scrape concurrently with the sweep: these mid-run bodies must always
	// be well-formed, whatever partial state they catch.
	running := true
	for running {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Figure 4 sweep: %v", err)
			}
			running = false
		default:
			srv.Poll()
			checkBody(scrape())
		}
	}

	// Deterministic final state: one more differ tick after completion
	// must expose the per-estimator quality gauges and the ERR
	// standard-error gauge the sweep recorded.
	srv.Poll()
	body := scrape()
	checkBody(body)
	if !strings.Contains(body, "chameleon_mc_quality_") {
		t.Error("final /metrics scrape missing the mc.quality estimator gauges")
	}
	if !strings.Contains(body, "chameleon_err_stderr_mean") {
		t.Error("final /metrics scrape missing chameleon_err_stderr_mean")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
