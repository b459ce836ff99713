package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"chameleon/internal/jobs"
)

// buildTools compiles the named cmd/ binaries into dir once per test.
func buildTools(t *testing.T, dir string, tools ...string) map[string]string {
	t.Helper()
	if testing.Short() {
		t.Skip("daemon e2e test skipped in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain unavailable")
	}
	bins := map[string]string{}
	for _, tool := range tools {
		bin := filepath.Join(dir, tool)
		if out, err := exec.Command("go", "build", "-o", bin, "chameleon/cmd/"+tool).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
		bins[tool] = bin
	}
	return bins
}

// daemon is one running chameleond subprocess.
type daemon struct {
	cmd  *exec.Cmd
	addr string
}

// startDaemon launches chameleond and waits for its announced address.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-serve", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for the daemon's own readiness line — it prints after the
	// manager has started, so the job API is live (the runner announces
	// the listener earlier, before the scheduler accepts work).
	addrRe := regexp.MustCompile(`job API on http://([^/\s]+)/jobs`)
	var addr string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
			addr = m[1]
			break
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("chameleond never announced its job API address")
	}
	go io.Copy(io.Discard, stderr) // keep the pipe drained
	return &daemon{cmd: cmd, addr: addr}
}

// stop shuts the daemon down gracefully and checks the exit code is 0
// (a signalled shutdown is the daemon's normal exit).
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatalf("delivering SIGINT: %v", err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon shutdown exit: %v", err)
	}
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// submitMultipart uploads a graph file with the given spec JSON and
// returns the raw response.
func submitMultipart(t *testing.T, d *daemon, spec string, graphPath string) *http.Response {
	t.Helper()
	graph, err := os.ReadFile(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, _ := mw.CreateFormField("spec")
	fw.Write([]byte(spec))
	fw, _ = mw.CreateFormFile("graph", filepath.Base(graphPath))
	fw.Write(graph)
	mw.Close()
	resp, err := http.Post(d.url("/jobs"), mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// jobStatus fetches one job's status document.
func jobStatus(t *testing.T, d *daemon, id string) jobs.Status {
	t.Helper()
	resp, err := http.Get(d.url("/jobs/" + id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET /jobs/%s = %d: %s", id, resp.StatusCode, body)
	}
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// pollDone polls a job until it leaves the in-flight states, recording
// the progress samples seen along the way.
func pollDone(t *testing.T, d *daemon, id string, budget time.Duration) (jobs.Status, []float64) {
	t.Helper()
	deadline := time.Now().Add(budget)
	var progress []float64
	for {
		st := jobStatus(t, d, id)
		if st.State == jobs.StateDone || st.State == jobs.StateFailed || st.State == jobs.StateCancelled {
			return st, progress
		}
		if st.Progress > 0 {
			progress = append(progress, st.Progress)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, st.State, budget)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fetchResult downloads a job's result: the v2 bytes the daemon
// published, which must equal what `chameleon -binary` writes for the same
// spec and seed.
func fetchResult(t *testing.T, d *daemon, id string) []byte {
	t.Helper()
	resp, err := http.Get(d.url("/jobs/" + id + "/result"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result fetch = %d: %s", resp.StatusCode, body)
	}
	return body
}

// TestDaemonE2E drives the full daemon lifecycle: submit a job by graph
// upload, watch its progress monotonically advance, fetch the result and
// check it is byte-identical to a direct chameleon CLI run with the same
// parameters and seed, verify the certificate endpoint certifies it,
// repeat the byte comparison for the other three methods, and shut the
// daemon down cleanly.
func TestDaemonE2E(t *testing.T) {
	dir := t.TempDir()
	bins := buildTools(t, dir, "genug", "chameleon", "chameleond")

	graphPath := filepath.Join(dir, "g.tsv")
	basePath := filepath.Join(dir, "base.bin")
	if out, err := exec.Command(bins["genug"], "-topology", "ba", "-nodes", "150", "-degree", "2",
		"-probs", "discrete", "-seed", "3", "-o", graphPath).CombinedOutput(); err != nil {
		t.Fatalf("genug: %v\n%s", err, out)
	}
	// The reference: a direct CLI run, binary (v2) output.
	if out, err := exec.Command(bins["chameleon"], "-in", graphPath, "-out", basePath, "-binary",
		"-k", "5", "-eps", "0.05", "-samples", "100", "-seed", "7", "-q", "-workers", "2").CombinedOutput(); err != nil {
		t.Fatalf("chameleon baseline: %v\n%s", err, out)
	}
	base, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}

	spool := filepath.Join(dir, "spool")
	d := startDaemon(t, bins["chameleond"], "-spool", spool, "-max-jobs", "2", "-workers-per-job", "2")

	// The telemetry index must advertise the mounted job plane.
	iresp, err := http.Get(d.url("/"))
	if err != nil {
		t.Fatal(err)
	}
	index, _ := io.ReadAll(iresp.Body)
	iresp.Body.Close()
	if !strings.Contains(string(index), "/jobs") {
		t.Errorf("index page does not list the job plane:\n%s", index)
	}

	resp := submitMultipart(t, d, `{"k": 5, "eps": 0.05, "samples": 100, "seed": 7}`, graphPath)
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var job jobs.Job
	json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if job.ID == "" || job.Nodes != 150 {
		t.Fatalf("submitted job = %+v", job)
	}

	st, progress := pollDone(t, d, job.ID, 2*time.Minute)
	if st.State != jobs.StateDone {
		t.Fatalf("job finished %s (%s), want done", st.State, st.Job.Error)
	}
	// Progress, when observed at all, must never move backwards.
	for i := 1; i < len(progress); i++ {
		if progress[i] < progress[i-1] {
			t.Fatalf("progress moved backwards: %v", progress)
		}
	}

	// Byte-identical to the direct CLI run: same seed, same search, same
	// published graph.
	if got := fetchResult(t, d, job.ID); !bytes.Equal(got, base) {
		t.Fatalf("daemon result differs from the CLI run (%d vs %d bytes)", len(got), len(base))
	}

	// The certificate endpoint re-verifies the stored artifacts.
	cresp, err := http.Get(d.url("/jobs/" + job.ID + "/certificate"))
	if err != nil {
		t.Fatal(err)
	}
	var cert jobs.Certificate
	json.NewDecoder(cresp.Body).Decode(&cert)
	cresp.Body.Close()
	if !cert.Valid || cert.K != 5 {
		t.Fatalf("certificate = %+v, want valid k=5", cert)
	}
	if cert.EpsilonTilde > 0.05 {
		t.Fatalf("certificate eps~ = %v exceeds the claim", cert.EpsilonTilde)
	}

	// The listing shows the job done.
	lresp, err := http.Get(d.url("/jobs"))
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Jobs []jobs.Status `json:"jobs"`
	}
	json.NewDecoder(lresp.Body).Decode(&listing)
	lresp.Body.Close()
	if len(listing.Jobs) != 1 || listing.Jobs[0].State != jobs.StateDone {
		t.Fatalf("listing = %+v", listing)
	}

	// The other three methods publish the CLI's bytes too: both surfaces
	// hand the method name to core, which alone dispatches it.
	for _, method := range []string{"RS", "ME", "Rep-An"} {
		cliPath := filepath.Join(dir, method+".bin")
		if out, err := exec.Command(bins["chameleon"], "-in", graphPath, "-out", cliPath, "-binary", "-method", method,
			"-k", "5", "-eps", "0.05", "-samples", "100", "-seed", "7", "-q", "-workers", "2").CombinedOutput(); err != nil {
			t.Fatalf("chameleon -method %s: %v\n%s", method, err, out)
		}
		want, err := os.ReadFile(cliPath)
		if err != nil {
			t.Fatal(err)
		}
		resp := submitMultipart(t, d, `{"k": 5, "eps": 0.05, "samples": 100, "seed": 7, "method": "`+method+`"}`, graphPath)
		if resp.StatusCode != http.StatusAccepted {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("submit %s = %d: %s", method, resp.StatusCode, body)
		}
		var job jobs.Job
		json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if st, _ := pollDone(t, d, job.ID, 2*time.Minute); st.State != jobs.StateDone {
			t.Fatalf("%s job finished %s (%s), want done", method, st.State, st.Job.Error)
		}
		if got := fetchResult(t, d, job.ID); !bytes.Equal(got, want) {
			t.Fatalf("%s: daemon result differs from the CLI run (%d vs %d bytes)", method, len(got), len(want))
		}
	}

	d.stop(t)
}

// TestDaemonCrashRecovery SIGKILLs the daemon mid-σ-search and restarts
// it on the same spool: the job must resume from its checkpoint and
// publish a graph byte-identical to an uninterrupted run.
func TestDaemonCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	bins := buildTools(t, dir, "genug", "chameleon", "chameleond", "certify")

	graphPath := filepath.Join(dir, "big.tsv")
	basePath := filepath.Join(dir, "base.bin")
	if out, err := exec.Command(bins["genug"], "-topology", "ba", "-nodes", "3000", "-degree", "5",
		"-probs", "uniform", "-seed", "7", "-o", graphPath).CombinedOutput(); err != nil {
		t.Fatalf("genug: %v\n%s", err, out)
	}
	// Heavy enough that the search holds many seconds of work past its
	// first checkpoint — the kill window (same sizing as the CLI
	// interrupt test).
	spec := fmt.Sprintf(`{"k": 60, "eps": 0.01, "samples": 2000, "seed": 3, "graph_path": %q}`, graphPath)
	if out, err := exec.Command(bins["chameleon"], "-in", graphPath, "-out", basePath, "-binary",
		"-k", "60", "-eps", "0.01", "-samples", "2000", "-seed", "3", "-q", "-workers", "2").CombinedOutput(); err != nil {
		t.Fatalf("chameleon baseline: %v\n%s", err, out)
	}
	base, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}

	spool := filepath.Join(dir, "spool")
	d := startDaemon(t, bins["chameleond"], "-spool", spool, "-max-jobs", "1", "-workers-per-job", "2")

	resp, err := http.Post(d.url("/jobs"), "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var job jobs.Job
	json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()

	// Wait for a valid checkpoint with search progress, then SIGKILL —
	// no graceful anything; the spool must carry the whole truth.
	ckptPath := filepath.Join(spool, job.ID, "checkpoint.json")
	type sigmaFile struct {
		Version int               `json:"version"`
		Steps   []json.RawMessage `json:"steps"`
	}
	killDeadline := time.Now().Add(2 * time.Minute)
	for {
		if data, err := os.ReadFile(ckptPath); err == nil {
			var ck sigmaFile
			if json.Unmarshal(data, &ck) == nil && len(ck.Steps) >= 1 {
				break
			}
		}
		if time.Now().After(killDeadline) {
			d.cmd.Process.Kill()
			d.cmd.Wait()
			t.Fatalf("no checkpoint appeared at %s", ckptPath)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait() // exit code is meaningless after SIGKILL

	// Restart on the same spool: the job must come back and finish.
	d2 := startDaemon(t, bins["chameleond"], "-spool", spool, "-max-jobs", "1", "-workers-per-job", "2")
	st, _ := pollDone(t, d2, job.ID, 3*time.Minute)
	if st.State != jobs.StateDone {
		t.Fatalf("recovered job finished %s (%s), want done", st.State, st.Job.Error)
	}
	if st.Recovered < 1 {
		t.Fatalf("Recovered = %d, want >= 1", st.Recovered)
	}

	// Bit-identical to the uninterrupted CLI run — the whole point of
	// checkpoint-backed recovery.
	got := fetchResult(t, d2, job.ID)
	if !bytes.Equal(got, base) {
		t.Fatalf("recovered result differs from the uninterrupted run (%d vs %d bytes)", len(got), len(base))
	}

	// The independent auditor certifies the recovered release.
	recoveredPath := filepath.Join(dir, "recovered.bin")
	if err := os.WriteFile(recoveredPath, got, 0o644); err != nil {
		t.Fatal(err)
	}
	cout, err := exec.Command(bins["certify"], "-orig", graphPath, "-pub", recoveredPath,
		"-k", "60", "-eps", "0.01").CombinedOutput()
	if err != nil {
		t.Fatalf("certify refused the recovered release: %v\n%s", err, cout)
	}
	if !strings.Contains(string(cout), "CERTIFIED") {
		t.Fatalf("certify verdict missing:\n%s", cout)
	}

	// The spool's event journal recorded the whole story across both
	// daemon lives.
	evs, err := jobs.ReadEvents(spool)
	if err != nil {
		t.Fatal(err)
	}
	var seen []string
	for _, ev := range evs {
		if ev.JobID == job.ID {
			seen = append(seen, ev.Event)
		}
	}
	joined := strings.Join(seen, ",")
	for _, want := range []string{"submitted", "started", "recovered", "done"} {
		if !strings.Contains(joined, want) {
			t.Errorf("event journal missing %q: %v", want, seen)
		}
	}

	d2.stop(t)
}

// TestDaemonLoad saturates a deliberately tiny daemon with concurrent
// submissions: accepted jobs must all complete, overload must shed with
// 429 + Retry-After, and the telemetry and query planes must stay
// responsive throughout.
func TestDaemonLoad(t *testing.T) {
	dir := t.TempDir()
	bins := buildTools(t, dir, "genug", "chameleond")

	graphPath := filepath.Join(dir, "g.tsv")
	if out, err := exec.Command(bins["genug"], "-topology", "ba", "-nodes", "300", "-degree", "3",
		"-probs", "uniform", "-seed", "5", "-o", graphPath).CombinedOutput(); err != nil {
		t.Fatalf("genug: %v\n%s", err, out)
	}

	spool := filepath.Join(dir, "spool")
	d := startDaemon(t, bins["chameleond"], "-spool", spool,
		"-max-jobs", "2", "-queue", "2", "-workers-per-job", "1",
		"-query", graphPath, "-query-samples", "50")

	// Fire 16 simultaneous submissions at a daemon with 2 workers and 2
	// queue slots: some must land, the rest must shed.
	const burst = 16
	spec := `{"k": 8, "eps": 0.05, "samples": 300, "seed": 11}`
	type outcome struct {
		status     int
		id         string
		retryAfter string
		body       string
	}
	outcomes := make([]outcome, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := submitMultipart(t, d, spec, graphPath)
			defer resp.Body.Close()
			o := outcome{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
			body, _ := io.ReadAll(resp.Body)
			o.body = string(body)
			if resp.StatusCode == http.StatusAccepted {
				var j jobs.Job
				if json.Unmarshal(body, &j) == nil {
					o.id = j.ID
				}
			}
			outcomes[i] = o
		}(i)
	}
	wg.Wait()

	var accepted []string
	rejected := 0
	for _, o := range outcomes {
		switch o.status {
		case http.StatusAccepted:
			accepted = append(accepted, o.id)
		case http.StatusTooManyRequests:
			rejected++
			if secs, err := strconv.Atoi(o.retryAfter); err != nil || secs < 1 {
				t.Errorf("429 Retry-After = %q, want a positive integer of seconds", o.retryAfter)
			}
		default:
			t.Errorf("unexpected submit status %d: %s", o.status, o.body)
		}
	}
	if len(accepted) == 0 {
		t.Fatal("no submission was accepted")
	}
	if rejected == 0 {
		t.Fatal("no submission was shed with 429")
	}
	t.Logf("burst of %d: %d accepted, %d shed", burst, len(accepted), rejected)

	// While the accepted jobs run, the daemon's other planes must answer.
	mresp, err := http.Get(d.url("/metrics"))
	if err != nil {
		t.Fatalf("/metrics under load: %v", err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics under load = %d", mresp.StatusCode)
	}
	for _, want := range []string{"chameleon_jobs_submitted", "chameleon_jobs_rejected", "chameleon_uptime_seconds"} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %s under load", want)
		}
	}
	qresp, err := http.Post(d.url("/query"), "application/json",
		strings.NewReader(`{"kind": "degree", "u": 0}`))
	if err != nil {
		t.Fatalf("/query under load: %v", err)
	}
	qbody, _ := io.ReadAll(qresp.Body)
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("/query under load = %d: %s", qresp.StatusCode, qbody)
	}

	// Every accepted job completes.
	for _, id := range accepted {
		st, _ := pollDone(t, d, id, 3*time.Minute)
		if st.State != jobs.StateDone {
			t.Fatalf("accepted job %s finished %s (%s), want done", id, st.State, st.Job.Error)
		}
	}

	// The jobs.* instruments reflect the story.
	mresp, err = http.Get(d.url("/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ = io.ReadAll(mresp.Body)
	mresp.Body.Close()
	completedRe := regexp.MustCompile(`chameleon_jobs_completed (\d+)`)
	m := completedRe.FindStringSubmatch(string(mbody))
	if m == nil {
		t.Fatalf("/metrics missing chameleon_jobs_completed:\n%s", mbody)
	}
	if n, _ := strconv.Atoi(m[1]); n != len(accepted) {
		t.Errorf("jobs_completed = %s, want %d", m[1], len(accepted))
	}

	d.stop(t)
}

// TestDaemonUsage covers the flag-validation exits.
func TestDaemonUsage(t *testing.T) {
	dir := t.TempDir()
	bins := buildTools(t, dir, "chameleond")
	err := exec.Command(bins["chameleond"]).Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("chameleond without -spool: %v, want exit 2", err)
	}
}
