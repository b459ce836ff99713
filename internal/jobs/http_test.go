package jobs

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"chameleon/internal/core"
	"chameleon/internal/uncertain"
)

// postJob submits a multipart job through the test server.
func postJob(t *testing.T, url string, spec string, g *uncertain.Graph) *http.Response {
	t.Helper()
	var gbuf bytes.Buffer
	if err := uncertain.WriteBinaryV2(&gbuf, g); err != nil {
		t.Fatal(err)
	}
	ct, body := multipartBody(t, []byte(spec), gbuf.Bytes())
	resp, err := http.Post(url+"/jobs", ct, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJob(t *testing.T, resp *http.Response) Job {
	t.Helper()
	defer resp.Body.Close()
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

// TestAPIEndToEnd drives the whole HTTP surface against a real
// anonymization: submit, status, list, result, certificate, cancel and
// the error statuses.
func TestAPIEndToEnd(t *testing.T) {
	g := testGraph(t, 50, 8)
	m, st, _ := startManager(t, Config{MaxConcurrent: 1, WorkersPerJob: 1})
	srv := httptest.NewServer(NewAPI(m))
	defer srv.Close()

	// Unknown job: 404. Wrong state for result: 409 later.
	if resp, _ := http.Get(srv.URL + "/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown job = %d, want 404", resp.StatusCode)
	}

	resp := postJob(t, srv.URL, `{"k": 3, "eps": 0.05, "samples": 50, "seed": 4}`, g)
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	if loc := resp.Header.Get("Location"); loc == "" {
		t.Fatal("submit response has no Location header")
	}
	job := decodeJob(t, resp)
	if job.ID == "" {
		t.Fatal("submit returned no job ID")
	}

	waitDone(t, m, job.ID)

	// Status: done, with the search summary.
	sresp, err := http.Get(srv.URL + "/jobs/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	var stt Status
	json.NewDecoder(sresp.Body).Decode(&stt)
	sresp.Body.Close()
	if stt.State != StateDone || stt.Sigma <= 0 {
		t.Fatalf("status = %+v, want done with sigma", stt)
	}

	// Listing includes the job.
	lresp, err := http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Jobs []Status `json:"jobs"`
	}
	json.NewDecoder(lresp.Body).Decode(&listing)
	lresp.Body.Close()
	if len(listing.Jobs) != 1 || listing.Jobs[0].ID != job.ID {
		t.Fatalf("listing = %+v", listing)
	}

	// Result: the served bytes are the spooled v2 file, and they decode.
	rresp, err := http.Get(srv.URL + "/jobs/" + job.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d", rresp.StatusCode)
	}
	fetched, err := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	spooled, err := os.ReadFile(st.ResultPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fetched, spooled) {
		t.Fatal("fetched result differs from the spooled result")
	}
	if _, err := uncertain.ReadBinary(bytes.NewReader(fetched)); err != nil {
		t.Fatalf("result does not decode: %v", err)
	}

	// Certificate: the published graph must verify against the input.
	cresp, err := http.Get(srv.URL + "/jobs/" + job.ID + "/certificate")
	if err != nil {
		t.Fatal(err)
	}
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("certificate = %d", cresp.StatusCode)
	}
	var cert Certificate
	json.NewDecoder(cresp.Body).Decode(&cert)
	cresp.Body.Close()
	if !cert.Valid {
		t.Fatalf("certificate invalid: %+v", cert)
	}
	if cert.K != 3 || cert.EpsilonTilde > 0.05 {
		t.Fatalf("certificate = %+v", cert)
	}

	// Bad submissions are 400 with a JSON error body.
	bresp := postJob(t, srv.URL, `{"k": 1, "eps": 0.05}`, g)
	if bresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec = %d, want 400", bresp.StatusCode)
	}
	var eb errorBody
	json.NewDecoder(bresp.Body).Decode(&eb)
	bresp.Body.Close()
	if eb.Error == "" {
		t.Fatal("400 without an error body")
	}

	// JSON route with a server-side path.
	gpath := filepath.Join(t.TempDir(), "g.tsv")
	if err := uncertain.SaveFile(gpath, g); err != nil {
		t.Fatal(err)
	}
	jresp, err := http.Post(srv.URL+"/jobs", "application/json",
		bytes.NewBufferString(fmt.Sprintf(`{"k": 3, "eps": 0.05, "samples": 50, "seed": 4, "graph_path": %q}`, gpath)))
	if err != nil {
		t.Fatal(err)
	}
	if jresp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(jresp.Body)
		t.Fatalf("JSON submit = %d: %s", jresp.StatusCode, body)
	}
	pathJob := decodeJob(t, jresp)
	waitDone(t, m, pathJob.ID)

	// Determinism across submission routes: same spec, same graph, same
	// published bytes.
	viaPath, err := os.ReadFile(st.ResultPath(pathJob.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fetched, viaPath) {
		t.Fatal("JSON-route result differs from the multipart-route result")
	}

	// A missing server-side path is the client's fault: 400.
	mresp, err := http.Post(srv.URL+"/jobs", "application/json",
		bytes.NewBufferString(`{"k": 3, "eps": 0.05, "graph_path": "/does/not/exist"}`))
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing graph_path = %d, want 400", mresp.StatusCode)
	}
}

// TestAPIAdmission saturates a deliberately tiny daemon over HTTP:
// beyond the queue, submissions get 429 with a parseable Retry-After;
// accepted jobs complete; results of in-flight jobs are 409.
func TestAPIAdmission(t *testing.T) {
	g := testGraph(t, 30, 9)
	release := make(chan struct{})
	// gate lets the test swap in a fresh blocking channel between phases
	// without racing the workers' runFn reads.
	var gate atomic.Value
	gate.Store(release)
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{Store: st, MaxConcurrent: 1, QueueDepth: 1, WorkersPerJob: 1})
	m.runFn = func(ctx context.Context, tr *tracked, job Job) (*core.Result, error) {
		select {
		case <-gate.Load().(chan struct{}):
			return &core.Result{Graph: g, EpsilonTilde: 0.01, Sigma: 0.5}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); m.Wait(); st.Close() }()
	if _, err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewAPI(m))
	defer srv.Close()

	spec := `{"k": 3, "eps": 0.1}`
	first := decodeJob(t, postJob(t, srv.URL, spec, g))
	deadline := time.Now().Add(30 * time.Second)
	for {
		stt, err := m.Get(first.ID)
		if err != nil {
			t.Fatal(err)
		}
		if stt.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	second := decodeJob(t, postJob(t, srv.URL, spec, g)) // fills the queue

	// In-flight result fetch: 409, not a hang or an empty file.
	rresp, err := http.Get(srv.URL + "/jobs/" + first.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusConflict {
		t.Fatalf("result of running job = %d, want 409", rresp.StatusCode)
	}

	// The saturating submission: 429 + Retry-After.
	oresp := postJob(t, srv.URL, spec, g)
	defer oresp.Body.Close()
	if oresp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit = %d, want 429", oresp.StatusCode)
	}
	ra := oresp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer of seconds", ra)
	}

	close(release)
	for _, id := range []string{first.ID, second.ID} {
		waitDone(t, m, id)
		if stt, _ := m.Get(id); stt.State != StateDone {
			t.Fatalf("accepted job %s finished %s, want done", id, stt.State)
		}
	}

	// Cancelled-over-HTTP path: submit against a fresh (blocking) gate,
	// cancel, observe the state.
	gate.Store(make(chan struct{}))
	third := decodeJob(t, postJob(t, srv.URL, spec, g))
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+third.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d, want 200", dresp.StatusCode)
	}
	waitDone(t, m, third.ID)
	if stt, _ := m.Get(third.ID); stt.State != StateCancelled {
		t.Fatalf("cancelled job state = %s", stt.State)
	}
}

// TestAPIUploadLimit bounds submission bodies: anything over the limit
// is 413, not an admitted job.
func TestAPIUploadLimit(t *testing.T) {
	m, _, _ := startManager(t, Config{MaxConcurrent: 1, WorkersPerJob: 1})
	api := NewAPI(m)
	api.MaxUploadBytes = 256
	srv := httptest.NewServer(api)
	defer srv.Close()

	resp := postJob(t, srv.URL, `{"k": 3, "eps": 0.1}`, testGraph(t, 60, 10))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload = %d, want 413", resp.StatusCode)
	}
	if len(m.List()) != 0 {
		t.Fatal("oversized upload was admitted")
	}
}

// forgedV2Uploads hand-builds two v2 graph files whose frames declare
// sizes their bytes do not back: META claims 2^40 edges over 2^24
// vertices, then an EDGE frame either carries a valid CRC over a 2-byte
// payload or declares a 2^40-byte payload and ends.
func forgedV2Uploads() map[string][]byte {
	le := binary.LittleEndian
	frame := func(id uint32, length uint64, payload []byte) []byte {
		b := le.AppendUint32(nil, id)
		b = le.AppendUint64(b, length)
		b = le.AppendUint32(b, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
		return append(b, payload...)
	}
	const secMETA, secEDGE = 0x4154454D, 0x45474445
	meta := binary.AppendUvarint(binary.AppendUvarint(nil, 1<<24), 1<<40)
	meta = append(meta, 0) // q16 probability column
	head := le.AppendUint32(le.AppendUint32(nil, 0x55475247), 2)
	head = append(head, frame(secMETA, uint64(len(meta)), meta)...)
	return map[string][]byte{
		"edge count":     append(bytes.Clone(head), frame(secEDGE, 2, []byte{0, 0})...),
		"section length": append(append(bytes.Clone(head), frame(secEDGE, 1<<40, nil)...), 0, 0),
	}
}

// TestAPIRefusesForgedV2Upload posts graph files that declare terabytes
// in a few dozen bytes: each must come back 4xx without being admitted,
// and the daemon must go on accepting a valid job afterwards.
func TestAPIRefusesForgedV2Upload(t *testing.T) {
	m, _, _ := startManager(t, Config{MaxConcurrent: 1, WorkersPerJob: 1})
	srv := httptest.NewServer(NewAPI(m))
	defer srv.Close()

	for name, data := range forgedV2Uploads() {
		ct, body := multipartBody(t, []byte(`{"k": 3, "eps": 0.1}`), data)
		resp, err := http.Post(srv.URL+"/jobs", ct, body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Fatalf("%s: forged upload = %d %s, want 4xx", name, resp.StatusCode, msg)
		}
	}
	if len(m.List()) != 0 {
		t.Fatal("a forged upload was admitted")
	}
	resp := postJob(t, srv.URL, `{"k": 3, "eps": 0.1, "samples": 20}`, testGraph(t, 40, 11))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid job after forged uploads = %d, want 202", resp.StatusCode)
	}
	decodeJob(t, resp)
}
