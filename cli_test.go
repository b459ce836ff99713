package chameleon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"chameleon/internal/core"
	"chameleon/internal/obs"
	"chameleon/internal/obs/journal"
)

// TestCLIPipeline builds the command-line tools and drives the full
// publish workflow end to end: generate -> anonymize -> evaluate ->
// attack. Skipped in -short mode (it shells out to the Go toolchain).
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline test skipped in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain unavailable")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, tool := range []string{"genug", "chameleon", "ugstat", "attack", "ugquery", "certify"} {
		bin := filepath.Join(dir, tool)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+tool)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
		bins[tool] = bin
	}

	run := func(tool string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bins[tool], args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
		}
		return string(out)
	}

	graphPath := filepath.Join(dir, "g.tsv")
	anonPath := filepath.Join(dir, "anon.tsv")

	run("genug", "-topology", "ba", "-nodes", "150", "-degree", "2",
		"-probs", "discrete", "-seed", "3", "-o", graphPath)
	if _, err := os.Stat(graphPath); err != nil {
		t.Fatalf("genug did not write the graph: %v", err)
	}

	out := run("chameleon", "-in", graphPath, "-out", anonPath,
		"-k", "5", "-eps", "0.05", "-samples", "100", "-seed", "7")
	if !strings.Contains(out, "eps~=") {
		t.Fatalf("chameleon summary missing: %s", out)
	}
	if !strings.Contains(out, "phases: precompute") {
		t.Fatalf("chameleon summary missing the phase breakdown: %s", out)
	}
	if !strings.Contains(out, "(uniqueness ") || !strings.Contains(out, "edge relevance ") {
		t.Fatalf("phase breakdown missing the precompute layers: %s", out)
	}

	// The published file must load back as a valid graph with the same
	// vertex set.
	orig, err := LoadGraph(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	anon, err := LoadGraph(anonPath)
	if err != nil {
		t.Fatal(err)
	}
	if anon.NumNodes() != orig.NumNodes() {
		t.Fatalf("published graph has %d nodes, want %d", anon.NumNodes(), orig.NumNodes())
	}

	// Observability: -stats must dump a JSON snapshot holding the full
	// sigma-search trace (every attempt with sigma, outcome, duration)
	// plus the Monte Carlo sampling counters.
	snapPath := filepath.Join(dir, "stats.json")
	run("chameleon", "-in", graphPath, "-k", "5", "-eps", "0.05",
		"-samples", "100", "-seed", "7", "-workers", "2", "-q", "-stats", snapPath)
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatalf("chameleon -stats wrote nothing: %v", err)
	}
	var snap obs.ObserverSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("-stats snapshot is not valid JSON: %v\n%s", err, raw)
	}
	if snap.Counters["mc.worlds_sampled"] <= 0 {
		t.Fatalf("-stats snapshot missing MC sampling counters: %v", snap.Counters)
	}
	// Per-worker sample-balance counters: the chunked scheduler must account
	// for every drawn world, so the mc.worker.* counters sum exactly to
	// mc.worlds_sampled (both are only incremented by forEachSample).
	var workerSum int64
	workerCounters := 0
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "mc.worker.") {
			workerSum += v
			workerCounters++
		}
	}
	if workerCounters == 0 {
		t.Fatalf("-stats snapshot missing per-worker sample counters: %v", snap.Counters)
	}
	if got := snap.Counters["mc.worlds_sampled"]; workerSum != got {
		t.Fatalf("per-worker samples sum to %d, worlds_sampled says %d", workerSum, got)
	}
	if snap.Counters["core.genobf_calls"] <= 0 || snap.Counters["core.genobf_attempts"] <= 0 {
		t.Fatalf("-stats snapshot missing genobf counters: %v", snap.Counters)
	}
	if len(snap.Spans) == 0 {
		t.Fatal("-stats snapshot has no trace spans")
	}
	genobfs := snap.Spans[0].FindAll("genobf")
	if len(genobfs) == 0 {
		t.Fatalf("search trace has no genobf spans:\n%s", raw)
	}
	var attempts int
	for _, g := range genobfs {
		if _, ok := g.Attr("sigma"); !ok {
			t.Fatalf("genobf span lacks sigma: %+v", g.Attrs)
		}
		for _, a := range g.FindAll("attempt") {
			attempts++
			if _, ok := a.Attr("sigma"); !ok {
				t.Fatalf("attempt lacks sigma: %+v", a.Attrs)
			}
			if _, ok := a.Attr("ok"); !ok {
				t.Fatalf("attempt lacks outcome: %+v", a.Attrs)
			}
			if a.DurationNS <= 0 {
				t.Fatalf("attempt lacks wall time: %+v", a)
			}
		}
	}
	if want := int(snap.Counters["core.genobf_attempts"]); attempts != want {
		t.Fatalf("trace holds %d attempts, counters say %d", attempts, want)
	}

	statsOut := run("ugstat", "-g", graphPath, "-pub", anonPath, "-k", "5",
		"-samples", "100", "-metric-samples", "3")
	for _, want := range []string{"privacy", "reliability discrepancy", "clustering err"} {
		if !strings.Contains(statsOut, want) {
			t.Fatalf("ugstat output missing %q:\n%s", want, statsOut)
		}
	}

	// The published graph must pass the independent certificate checker
	// (testkit's re-derivation of Definition 3, not the production code
	// ugstat uses).
	certOut := run("certify", "-orig", graphPath, "-pub", anonPath, "-k", "5", "-eps", "0.05")
	if !strings.Contains(certOut, "CERTIFIED") || strings.Contains(certOut, "NOT CERTIFIED") {
		t.Fatalf("certify did not certify the published graph:\n%s", certOut)
	}
	// A graph that plainly violates the claim is rejected with exit 1: a
	// certain star "published" as itself leaves its hub's unique degree
	// fully exposed.
	starPath := filepath.Join(dir, "star.tsv")
	star := NewGraph(12)
	for v := 1; v < 12; v++ {
		star.MustAddEdge(0, NodeID(v), 1)
	}
	if err := SaveGraph(starPath, star); err != nil {
		t.Fatal(err)
	}
	certCmd := exec.Command(bins["certify"], "-orig", starPath, "-pub", starPath, "-k", "4", "-eps", "0")
	certBad, err := certCmd.CombinedOutput()
	var certExit *exec.ExitError
	if !errors.As(err, &certExit) || certExit.ExitCode() != 1 {
		t.Fatalf("certify on an unprotected graph: err=%v, want exit 1\n%s", err, certBad)
	}
	if !strings.Contains(string(certBad), "NOT CERTIFIED") {
		t.Fatalf("certify rejection output:\n%s", certBad)
	}

	attackOut := run("attack", "-orig", graphPath, "-pub", anonPath, "-k", "5")
	if !strings.Contains(attackOut, "mean posterior") {
		t.Fatalf("attack output missing summary:\n%s", attackOut)
	}
	targetOut := run("attack", "-orig", graphPath, "-pub", anonPath, "-k", "5", "-target", "0")
	if !strings.Contains(targetOut, "posterior entropy") {
		t.Fatalf("attack -target output missing entropy:\n%s", targetOut)
	}

	queryOut := run("ugquery", "-g", graphPath, "-pair", "0,5", "-knn", "0", "-k", "3",
		"-components", "-samples", "200")
	for _, want := range []string{"R(0,5)", "3-NN of vertex 0", "support components"} {
		if !strings.Contains(queryOut, want) {
			t.Fatalf("ugquery output missing %q:\n%s", want, queryOut)
		}
	}
	relOut := run("ugquery", "-g", graphPath, "-relevance", "-top", "5", "-samples", "200")
	if !strings.Contains(relOut, "ERR=") {
		t.Fatalf("ugquery relevance output:\n%s", relOut)
	}
	if err := exec.Command(bins["ugquery"], "-g", graphPath).Run(); err == nil {
		t.Fatal("ugquery without a query should fail")
	}

	// The experiments binary reproduces a single artifact in quick mode.
	expBin := filepath.Join(dir, "experiments")
	if out, err := exec.Command("go", "build", "-o", expBin, "./cmd/experiments").CombinedOutput(); err != nil {
		t.Fatalf("building experiments: %v\n%s", err, out)
	}
	expOut, err := exec.Command(expBin, "-quick", "-run", "tableII,fig3").CombinedOutput()
	if err != nil {
		t.Fatalf("experiments -quick: %v\n%s", err, expOut)
	}
	for _, want := range []string{"Table II", "Figure 3a", "dblp-q"} {
		if !strings.Contains(string(expOut), want) {
			t.Fatalf("experiments output missing %q:\n%s", want, expOut)
		}
	}

	// Binary output format round-trips through the tools.
	binGraph := filepath.Join(dir, "g.ug2")
	run("genug", "-topology", "er", "-nodes", "60", "-edges", "120",
		"-seed", "4", "-format", "v2", "-o", binGraph)
	statsBin := run("ugstat", "-g", binGraph, "-metric-samples", "3")
	if !strings.Contains(statsBin, "nodes") {
		t.Fatalf("ugstat on binary graph:\n%s", statsBin)
	}
	// v1 is read-only: asking genug to write it is a usage error (exit 2).
	v1Out, err := exec.Command(bins["genug"], "-format", "v1", "-o", filepath.Join(dir, "g.v1")).CombinedOutput()
	var v1Exit *exec.ExitError
	if !errors.As(err, &v1Exit) || v1Exit.ExitCode() != 2 || !strings.Contains(string(v1Out), "unknown format") {
		t.Fatalf("genug -format v1: err=%v, want exit 2 with a usage error:\n%s", err, v1Out)
	}

	// Failure paths: missing flags exit nonzero.
	if err := exec.Command(bins["chameleon"]).Run(); err == nil {
		t.Fatal("chameleon without -in should fail")
	}
	if err := exec.Command(bins["ugstat"]).Run(); err == nil {
		t.Fatal("ugstat without -g should fail")
	}
	if err := exec.Command(bins["attack"]).Run(); err == nil {
		t.Fatal("attack without -orig should fail")
	}
	if err := exec.Command(bins["certify"]).Run(); err == nil {
		t.Fatal("certify without -orig/-pub should fail")
	}
	// Unknown dataset is rejected.
	if err := exec.Command(bins["genug"], "-dataset", "bogus").Run(); err == nil {
		t.Fatal("genug with unknown dataset should fail")
	}
}

// TestCLIServeJournal drives the live-telemetry path end to end: an
// experiments sweep with -serve keeps /metrics curl-able for its whole
// duration and must expose the estimator-quality gauges; -journal appends
// a JSONL journal that replays, and tracestat reads it back. Skipped
// in -short mode.
func TestCLIServeJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI serve/journal test skipped in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain unavailable")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, tool := range []string{"experiments", "tracestat"} {
		bin := filepath.Join(dir, tool)
		if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+tool).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
		bins[tool] = bin
	}

	journalPath := filepath.Join(dir, "runs.jsonl")
	cmd := exec.Command(bins["experiments"], "-quick", "-run", "fig4", "-samples", "60",
		"-serve", "127.0.0.1:0", "-journal", journalPath)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// The CLI announces its bound ephemeral address on stderr before the
	// sweep starts.
	addrRe := regexp.MustCompile(`http://([^/\s]+)/metrics`)
	var addr string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
			addr = m[1]
			break
		}
	}
	if addr == "" {
		cmd.Wait()
		t.Fatal("experiments -serve never announced its address")
	}
	go io.Copy(io.Discard, stderr) // keep the pipe drained

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return 0, ""
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get("/runs"); code != 200 || !strings.Contains(body, "experiments") {
		t.Errorf("/runs = %d %q", code, body)
	}

	// One immediate scrape: the address is announced before the sweep
	// starts, so the endpoint must be serving a well-formed body right
	// now. The timing-sensitive assertions (quality gauges appearing as
	// the sweep progresses, duplicate-TYPE detection across differ ticks)
	// live in TestMetricsScrapeDuringRun, which drives the differ
	// in-process via the expose.Server.Poll() hook and cannot flake on
	// scheduling the way a timed subprocess scrape loop can.
	if code, body := get("/metrics"); code != 200 {
		t.Errorf("/metrics status = %d", code)
	} else if !strings.Contains(body, "chameleon_uptime_seconds") {
		t.Errorf("/metrics body missing uptime gauge:\n%s", body)
	}

	if err := cmd.Wait(); err != nil {
		t.Fatalf("experiments -serve run failed: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("telemetry endpoint still up after the run ended")
	}

	// The journal replays: one completed run whose final snapshot carries
	// the quality streams the sweep recorded.
	runs, err := journal.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("journal replays %d runs, want 1", len(runs))
	}
	run := runs[0]
	if run.Command != "experiments" || run.Status != "done" {
		t.Fatalf("replayed run = %s/%s, want experiments/done", run.Command, run.Status)
	}
	if run.Final == nil {
		t.Fatal("journal has no final snapshot")
	}
	if len(run.Final.Quality) == 0 {
		t.Errorf("final snapshot has no quality streams: %v", run.Final.Counters)
	}
	if run.Final.Counters["mc.worlds_sampled"] <= 0 {
		t.Errorf("final snapshot missing MC counters: %v", run.Final.Counters)
	}
	if len(run.Snapshots) == 0 {
		t.Error("journal holds no periodic snapshots (final Poll should add one)")
	}

	// tracestat summarizes and compares.
	out, err := exec.Command(bins["tracestat"], "-metric", "mc.worlds_sampled", journalPath).CombinedOutput()
	if err != nil {
		t.Fatalf("tracestat: %v\n%s", err, out)
	}
	for _, want := range []string{"experiments", "done", "mc.worlds_sampled"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("tracestat output missing %q:\n%s", want, out)
		}
	}
}

// TestCLIInterrupt drives the interrupt-safety contract end to end, per
// the runner's conventions: a SIGINT mid-run exits 130 with a journal end
// record of status "interrupted" and a valid atomic checkpoint on disk,
// and resuming from that checkpoint reproduces the uninterrupted run's
// output bit for bit. Skipped in -short mode.
func TestCLIInterrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI interrupt test skipped in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain unavailable")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, tool := range []string{"genug", "chameleon", "experiments", "tracestat"} {
		bin := filepath.Join(dir, tool)
		if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+tool).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
		bins[tool] = bin
	}

	// waitThenInterrupt polls until the checkpoint at path passes valid
	// (atomic writes mean a reader never sees a half-written file), then
	// delivers SIGINT to cmd. The poll budget is generous: the runs below
	// hold many seconds of work beyond their first checkpoint write, so
	// the only way to flake is a machine too slow to run the suite at all.
	waitThenInterrupt := func(t *testing.T, cmd *exec.Cmd, path string, valid func([]byte) bool) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Minute)
		for {
			if data, err := os.ReadFile(path); err == nil && valid(data) {
				break
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				cmd.Wait()
				t.Fatalf("no valid checkpoint appeared at %s", path)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatalf("delivering SIGINT: %v", err)
		}
	}
	wantExit := func(t *testing.T, err error, code int, stderr *bytes.Buffer) {
		t.Helper()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != code {
			t.Fatalf("exit = %v, want code %d\nstderr:\n%s", err, code, stderr)
		}
	}
	// wantTimeline requires the interrupted run to have journaled its span
	// timeline, the first root named root, and tracestat to print a phase
	// table and a critical path for it.
	wantTimeline := func(t *testing.T, run *journal.Run, journalPath, root string) {
		t.Helper()
		if len(run.Spans) == 0 || run.Spans[0].Name != root {
			t.Fatalf("interrupted run journaled %d span records, want the first rooted at %q", len(run.Spans), root)
		}
		out, err := exec.Command(bins["tracestat"], journalPath).CombinedOutput()
		if err != nil {
			t.Fatalf("tracestat: %v\n%s", err, out)
		}
		for _, want := range []string{"PHASE", "\n" + root + " ", "critical path (" + root} {
			if !strings.Contains(string(out), want) {
				t.Errorf("tracestat output missing %q:\n%s", want, out)
			}
		}
	}

	// Sweep interruption: experiments checkpoints finished cells, the
	// journal closes with an "interrupted" end record, and rerunning with
	// the same flags resumes and reproduces the uninterrupted stdout.
	t.Run("sweep", func(t *testing.T) {
		journalPath := filepath.Join(dir, "sweep.jsonl")
		ckptPath := filepath.Join(dir, "cells.json")
		sweepArgs := []string{"-quick", "-run", "fig8", "-samples", "40", "-seed", "7"}

		baseline, err := exec.Command(bins["experiments"], sweepArgs...).Output()
		if err != nil {
			t.Fatalf("uninterrupted sweep: %v", err)
		}

		args := append(sweepArgs, "-journal", journalPath, "-checkpoint", ckptPath)
		cmd := exec.Command(bins["experiments"], args...)
		var stderr bytes.Buffer
		cmd.Stdout = io.Discard
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		type cellFile struct {
			Version int                        `json:"version"`
			Cells   map[string]json.RawMessage `json:"cells"`
		}
		waitThenInterrupt(t, cmd, ckptPath, func(data []byte) bool {
			var f cellFile
			return json.Unmarshal(data, &f) == nil && len(f.Cells) >= 1
		})
		wantExit(t, cmd.Wait(), 130, &stderr)

		// The checkpoint survives the interrupt and is valid JSON holding
		// at least one finished cell.
		data, err := os.ReadFile(ckptPath)
		if err != nil {
			t.Fatalf("checkpoint after interrupt: %v", err)
		}
		var cells cellFile
		if err := json.Unmarshal(data, &cells); err != nil {
			t.Fatalf("checkpoint is not valid JSON: %v", err)
		}
		if cells.Version != 1 || len(cells.Cells) == 0 {
			t.Fatalf("checkpoint version=%d cells=%d, want version 1 with cells", cells.Version, len(cells.Cells))
		}

		// The journal got a proper goodbye, not a truncated tail.
		runs, err := journal.ReadFile(journalPath)
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 1 || runs[0].Status != "interrupted" {
			t.Fatalf("journal after interrupt = %d runs, status %q; want 1 interrupted", len(runs), runs[0].Status)
		}
		if runs[0].Truncated() || runs[0].Error == "" {
			t.Fatalf("interrupted run: truncated=%v error=%q, want end record with cause", runs[0].Truncated(), runs[0].Error)
		}
		wantTimeline(t, runs[0], journalPath, "sweep.cell")

		// Rerunning with the same flags resumes the sweep and reproduces
		// the uninterrupted output exactly (only the timing line differs).
		cmd = exec.Command(bins["experiments"], args...)
		var resumedOut, resumedErr bytes.Buffer
		cmd.Stdout = &resumedOut
		cmd.Stderr = &resumedErr
		if err := cmd.Run(); err != nil {
			t.Fatalf("resumed sweep: %v\n%s", err, resumedErr.String())
		}
		if !strings.Contains(resumedErr.String(), "resuming sweep") {
			t.Errorf("resumed sweep did not announce restored cells:\n%s", resumedErr.String())
		}
		if got, want := stripTiming(resumedOut.String()), stripTiming(string(baseline)); got != want {
			t.Errorf("resumed sweep output differs from uninterrupted run:\n--- resumed\n%s--- uninterrupted\n%s", got, want)
		}
		if _, err := os.Stat(ckptPath); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("completed sweep left its checkpoint behind (stat err: %v)", err)
		}
		runs, err = journal.ReadFile(journalPath)
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 2 || runs[1].Status != "done" {
			t.Fatalf("journal after resume = %d runs, last status %q; want 2 with done", len(runs), runs[len(runs)-1].Status)
		}
	})

	// A mistyped -run name is a usage error caught before the checkpoint is
	// opened: the resumable cells survive byte for byte instead of being
	// cleared by a run that did nothing.
	t.Run("unknown-artifact", func(t *testing.T) {
		ckptPath := filepath.Join(dir, "typo.json")
		ckpt := []byte(`{"version":1,"seed":7,"samples":40,"metric_samples":10,"pairs":2000,"quick":true,` +
			`"cells":{"dblp-q/RSME/k100":{"Dataset":"dblp-q","Method":"RSME","PaperK":100,"K":5}}}`)
		if err := os.WriteFile(ckptPath, ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(bins["experiments"], "-quick", "-samples", "40", "-seed", "7",
			"-run", "fig08", "-checkpoint", ckptPath)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		wantExit(t, cmd.Run(), 2, &stderr)
		if !strings.Contains(stderr.String(), `"fig08"`) {
			t.Errorf("usage error does not name the bad artifact:\n%s", stderr.String())
		}
		if got, err := os.ReadFile(ckptPath); err != nil || !bytes.Equal(got, ckpt) {
			t.Fatalf("checkpoint changed by a rejected run (err %v):\n%s", err, got)
		}
	})

	// Sigma-search interruption: chameleon checkpoints the search state
	// (every call, via -checkpoint-every 1), SIGINT stops it at the next
	// safe point, and -resume finishes the search with an output graph
	// bit-identical to the uninterrupted run.
	t.Run("sigma-search", func(t *testing.T) {
		graphPath := filepath.Join(dir, "big.tsv")
		basePath := filepath.Join(dir, "base.tsv")
		resumedPath := filepath.Join(dir, "resumed.tsv")
		ckptPath := filepath.Join(dir, "sigma.json")
		if out, err := exec.Command(bins["genug"], "-topology", "ba", "-nodes", "3000",
			"-degree", "5", "-probs", "uniform", "-seed", "7", "-o", graphPath).CombinedOutput(); err != nil {
			t.Fatalf("genug: %v\n%s", err, out)
		}
		// Heavy enough that the search runs for several seconds past its
		// first genobf call — the interrupt window.
		anonArgs := []string{"-in", graphPath, "-k", "60", "-eps", "0.01",
			"-samples", "2000", "-seed", "3", "-q"}

		if out, err := exec.Command(bins["chameleon"],
			append(anonArgs, "-out", basePath)...).CombinedOutput(); err != nil {
			t.Fatalf("uninterrupted run: %v\n%s", err, out)
		}

		journalPath := filepath.Join(dir, "sigma.jsonl")
		cmd := exec.Command(bins["chameleon"], append(anonArgs,
			"-out", filepath.Join(dir, "never.tsv"), "-journal", journalPath,
			"-checkpoint", ckptPath, "-checkpoint-every", "1")...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		type sigmaFile struct {
			Version int               `json:"version"`
			Steps   []json.RawMessage `json:"steps"`
		}
		waitThenInterrupt(t, cmd, ckptPath, func(data []byte) bool {
			var f sigmaFile
			return json.Unmarshal(data, &f) == nil && len(f.Steps) >= 1
		})
		wantExit(t, cmd.Wait(), 130, &stderr)

		data, err := os.ReadFile(ckptPath)
		if err != nil {
			t.Fatalf("checkpoint after interrupt: %v", err)
		}
		var ck sigmaFile
		if err := json.Unmarshal(data, &ck); err != nil {
			t.Fatalf("checkpoint is not valid JSON: %v", err)
		}
		if ck.Version != core.CheckpointVersion || len(ck.Steps) < 1 {
			t.Fatalf("checkpoint = %+v, want version %d with search progress", ck, core.CheckpointVersion)
		}

		// The journal keeps the interrupted search's timeline.
		runs, err := journal.ReadFile(journalPath)
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 1 || runs[0].Status != "interrupted" {
			t.Fatalf("journal after interrupt = %d runs; want 1 interrupted", len(runs))
		}
		wantTimeline(t, runs[0], journalPath, "anonymize")

		if out, err := exec.Command(bins["chameleon"], append(anonArgs,
			"-out", resumedPath, "-resume", ckptPath)...).CombinedOutput(); err != nil {
			t.Fatalf("resumed run: %v\n%s", err, out)
		}
		base, err := os.ReadFile(basePath)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := os.ReadFile(resumedPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(base, resumed) {
			t.Errorf("resumed output differs from the uninterrupted run (%d vs %d bytes)", len(base), len(resumed))
		}
		if _, err := os.Stat(ckptPath); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("completed search left its checkpoint behind (stat err: %v)", err)
		}
	})
}

// stripTiming drops the wall-clock summary line ("total: ...") so two runs
// of the same sweep can be compared for semantic equality.
func stripTiming(s string) string {
	var b strings.Builder
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "total:") {
			continue
		}
		b.WriteString(line)
		b.WriteString("\n")
	}
	return b.String()
}
