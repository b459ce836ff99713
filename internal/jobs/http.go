package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"chameleon/internal/certify"
	"chameleon/internal/uncertain"
)

// API is the job plane's HTTP surface, mounted by cmd/chameleond on the
// same listener as /metrics and /query:
//
//	POST   /jobs                  submit (JSON spec, or multipart spec+graph)
//	GET    /jobs                  list every known job
//	GET    /jobs/{id}             one job's status (with live progress/ETA)
//	DELETE /jobs/{id}             cancel a queued or running job
//	GET    /jobs/{id}/result      the published graph, sectioned v2 binary
//	GET    /jobs/{id}/certificate re-verify the result against the input
type API struct {
	Manager *Manager
	// MaxUploadBytes bounds a submission body; 0 = DefaultMaxUploadBytes.
	MaxUploadBytes int64
	mux            *http.ServeMux
}

// NewAPI wires the handler tree over the manager.
func NewAPI(m *Manager) *API {
	a := &API{Manager: m, mux: http.NewServeMux()}
	a.mux.HandleFunc("POST /jobs", a.handleSubmit)
	a.mux.HandleFunc("GET /jobs", a.handleList)
	a.mux.HandleFunc("GET /jobs/{id}", a.handleStatus)
	a.mux.HandleFunc("DELETE /jobs/{id}", a.handleCancel)
	a.mux.HandleFunc("GET /jobs/{id}/result", a.handleResult)
	a.mux.HandleFunc("GET /jobs/{id}/certificate", a.handleCertificate)
	return a
}

// ServeHTTP implements http.Handler.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) { a.mux.ServeHTTP(w, r) }

// writeJSON emits one JSON document with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

// writeError maps the job plane's error taxonomy onto HTTP statuses:
// client mistakes → 400, unknown IDs → 404, admission rejections → 429
// with Retry-After, shutdown → 503, the rest → 500.
func writeError(w http.ResponseWriter, err error) {
	var busy *BusyError
	switch {
	case errors.As(err, &busy):
		w.Header().Set("Retry-After", strconv.Itoa(int(busy.RetryAfter/time.Second)))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: busy.Error()})
	case IsBadRequest(err):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	case errors.Is(err, ErrUnknownJob):
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
	case errors.Is(err, ErrShuttingDown):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// handleSubmit admits one job. The request body is either an
// application/json Spec naming a server-side graph_path, or a
// multipart/form-data pair of "spec" and "graph" parts.
func (a *API) handleSubmit(w http.ResponseWriter, r *http.Request) {
	limit := a.MaxUploadBytes
	if limit <= 0 {
		limit = DefaultMaxUploadBytes
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	spec, g, err := ParseSubmission(r.Header.Get("Content-Type"), body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("jobs: submission exceeds the %d byte limit", limit)})
			return
		}
		writeError(w, err)
		return
	}
	if g == nil {
		// JSON route: the graph lives on the server's filesystem.
		g, err = uncertain.LoadFile(spec.GraphPath)
		if err != nil {
			writeError(w, badRequestf("jobs: loading graph_path %q: %v", spec.GraphPath, err))
			return
		}
	}
	job, err := a.Manager.Submit(*spec, g)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job)
}

// handleList returns every known job's status, oldest first.
func (a *API) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []Status `json:"jobs"`
	}{Jobs: a.Manager.List()})
}

// handleStatus returns one job's status with live σ-search progress.
func (a *API) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := a.Manager.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleCancel stops a queued or running job.
func (a *API) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := a.Manager.Cancel(id); err != nil {
		writeError(w, err)
		return
	}
	st, err := a.Manager.Get(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleResult streams the published graph in the sectioned v2 binary
// container. 409 while the job is still in flight, 404 for unknown IDs,
// and the terminal non-done states report why there is no result.
func (a *API) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := a.Manager.Get(id)
	if err != nil {
		writeError(w, err)
		return
	}
	switch st.State {
	case StateDone:
	case StateQueued, StateRunning:
		writeJSON(w, http.StatusConflict,
			errorBody{Error: fmt.Sprintf("jobs: job %s is still %s", id, st.State)})
		return
	default:
		writeJSON(w, http.StatusConflict,
			errorBody{Error: fmt.Sprintf("jobs: job %s finished %s: %s", id, st.State, st.Job.Error)})
		return
	}
	f, err := os.Open(a.Manager.cfg.Store.ResultPath(id))
	if err != nil {
		writeError(w, fmt.Errorf("jobs: opening result for %s: %w", id, err))
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".ug2"))
	if fi, err := f.Stat(); err == nil {
		w.Header().Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
	}
	http.ServeContent(w, r, id+".ug2", st.FinishedAt, f)
}

// Certificate is the on-demand re-verification of a finished job: the
// spool's input and result are reloaded from disk and the full privacy
// certificate (Definition 3 entropy check plus tolerated-fraction bound)
// recomputed by testkit's independent checker. Valid is the verdict; a
// false Valid means the stored artifacts no longer deliver the claimed
// guarantee — the response is still 200, because the report itself
// succeeded (report semantics, like /healthz).
type Certificate struct {
	JobID   string  `json:"job_id"`
	K       int     `json:"k"`
	Epsilon float64 `json:"eps"`
	// EpsilonTilde is the re-measured under-obfuscated fraction.
	EpsilonTilde float64 `json:"epsilon_tilde"`
	// MinEntropy is the weakest vertex's posterior entropy in bits.
	MinEntropy float64 `json:"min_entropy"`
	Valid      bool    `json:"valid"`
}

// handleCertificate recomputes the privacy certificate for a done job.
func (a *API) handleCertificate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := a.Manager.Get(id)
	if err != nil {
		writeError(w, err)
		return
	}
	if st.State != StateDone {
		writeJSON(w, http.StatusConflict,
			errorBody{Error: fmt.Sprintf("jobs: job %s is %s; only done jobs certify", id, st.State)})
		return
	}
	store := a.Manager.cfg.Store
	orig, err := store.LoadInput(id)
	if err != nil {
		writeError(w, err)
		return
	}
	pub, err := uncertain.LoadFile(store.ResultPath(id))
	if err != nil {
		writeError(w, fmt.Errorf("jobs: loading result for %s: %w", id, err))
		return
	}
	rep, err := certify.Check(orig, pub, st.Spec.K, st.Spec.Epsilon)
	if err != nil {
		writeError(w, fmt.Errorf("jobs: certifying %s: %w", id, err))
		return
	}
	writeJSON(w, http.StatusOK, Certificate{
		JobID: id, K: st.Spec.K, Epsilon: st.Spec.Epsilon,
		EpsilonTilde: rep.EpsilonTilde, MinEntropy: rep.MinEntropy, Valid: rep.Valid,
	})
}
