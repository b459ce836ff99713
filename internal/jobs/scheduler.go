package jobs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"chameleon/internal/core"
	"chameleon/internal/obs"
	"chameleon/internal/uncertain"
)

// Config parameterizes a Manager.
type Config struct {
	// Store is the spool persistence layer (required).
	Store *Store
	// MaxConcurrent is the number of jobs anonymizing at once (default 2).
	MaxConcurrent int
	// QueueDepth bounds the admission queue; a submission arriving with
	// this many jobs already waiting is rejected with a BusyError
	// (default 16).
	QueueDepth int
	// MaxPendingSeconds, when positive, is the second admission budget:
	// a submission is rejected while the estimated worker-seconds of
	// queued plus running work (mean completed-job duration times the
	// in-flight count) already exceed it. Zero disables the cost gate.
	MaxPendingSeconds float64
	// WorkersPerJob is each job's parallelism: Monte Carlo sampling and
	// the GenObf attempts (core.Params.Workers). Zero carves the budget
	// from the machine: GOMAXPROCS / MaxConcurrent, floored at 1, so a
	// fully loaded daemon never oversubscribes the cores its telemetry
	// and query planes also live on. Worker count never changes a job's
	// output (seed-determinism is worker-count independent), so the
	// budget is pure scheduling policy.
	WorkersPerJob int
	// CheckpointEvery is the σ-search checkpoint cadence in GenObf calls
	// (default 1: every call, the strongest crash-recovery guarantee).
	// Negative disables periodic checkpoints (interrupt-time writes
	// remain).
	CheckpointEvery int
	// EstimateSeconds seeds the admission cost model before the first
	// job completes (default 5).
	EstimateSeconds float64
	// Obs receives the daemon-level jobs.* counters, gauges and the
	// jobs.latency instrument; may be nil.
	Obs *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.WorkersPerJob <= 0 {
		c.WorkersPerJob = max(1, runtime.GOMAXPROCS(0)/c.MaxConcurrent)
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 1
	}
	if c.EstimateSeconds <= 0 {
		c.EstimateSeconds = 5
	}
	return c
}

// BusyError is the admission-control rejection: the queue (or the
// pending worker-seconds budget) is full. The HTTP layer maps it to 429
// with the RetryAfter hint in the Retry-After header.
type BusyError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("jobs: busy (%s), retry in %s", e.Reason, e.RetryAfter)
}

// ErrUnknownJob is returned for operations on job IDs the manager has
// never seen.
var ErrUnknownJob = errors.New("jobs: unknown job")

// ErrShuttingDown rejects submissions arriving after shutdown began.
var ErrShuttingDown = errors.New("jobs: daemon is shutting down")

// tracked pairs a durable Job record with its in-memory scheduling
// state. Manager.mu guards every mutable field, including the embedded
// record's.
type tracked struct {
	job *Job
	// obs is the job's private observer: the σ-search publishes its
	// run.progress / run.eta_seconds gauges there, so concurrent jobs
	// never fight over one registry. Set only while the job runs.
	obs *obs.Observer
	// cancel interrupts a running job (set for the duration of runJob).
	cancel context.CancelFunc
	// cancelRequested distinguishes a client DELETE from a daemon
	// shutdown — both cancel the context, but only the former parks the
	// job at StateCancelled.
	cancelRequested bool
	// done is closed when the job reaches a terminal state (or is parked
	// back at queued by a shutdown). Tests and drain loops wait on it.
	done chan struct{}
}

// Manager is the concurrent job scheduler: a bounded FIFO queue feeding
// MaxConcurrent workers, admission control in front, durable state
// behind, and cooperative cancellation throughout. Construct with
// NewManager, call Start exactly once, and Wait after the context ends.
type Manager struct {
	cfg Config

	ctx   context.Context
	wg    sync.WaitGroup
	queue chan *tracked

	mu       sync.Mutex
	jobs     map[string]*tracked
	queued   int
	running  int
	totalSec float64 // summed wall seconds of completed jobs
	finished int     // jobs contributing to totalSec

	// runFn is the job execution seam: nil means the real anonymize
	// path. Tests swap in a blocking stub to drive admission control
	// deterministically.
	runFn func(ctx context.Context, t *tracked, job Job) (*core.Result, error)

	// Metrics (nil-safe through the obs contract).
	mSubmitted, mRejected, mCompleted, mFailed, mCancelled, mRecovered *obs.Counter
	gQueued, gRunning                                                  *obs.Gauge
	lat                                                                *obs.Latency
}

// NewManager builds a manager over the store. Call Start to run it.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	reg := cfg.Obs.Registry()
	return &Manager{
		cfg:        cfg,
		queue:      make(chan *tracked, cfg.QueueDepth+cfg.MaxConcurrent),
		jobs:       map[string]*tracked{},
		mSubmitted: reg.Counter("jobs.submitted"),
		mRejected:  reg.Counter("jobs.rejected"),
		mCompleted: reg.Counter("jobs.completed"),
		mFailed:    reg.Counter("jobs.failed"),
		mCancelled: reg.Counter("jobs.cancelled"),
		mRecovered: reg.Counter("jobs.recovered"),
		gQueued:    reg.Gauge("jobs.queued"),
		gRunning:   reg.Gauge("jobs.running"),
		lat:        reg.Latency("jobs.latency"),
	}
}

// Start launches the worker pool under ctx and recovers the spool: every
// job found queued or running (a previous daemon life never finished it)
// is re-enqueued, resuming from its σ-search checkpoint when one
// survives; terminal jobs are loaded as history so their status and
// results stay fetchable. Cancelling ctx stops the workers at the next
// job boundary — running jobs are interrupted, checkpoint, and park back
// at queued for the next daemon life.
func (m *Manager) Start(ctx context.Context) (recovered int, err error) {
	m.ctx = ctx
	prior, err := m.cfg.Store.Recover()
	if err != nil {
		return 0, err
	}
	now := time.Now()
	m.mu.Lock()
	for _, job := range prior {
		t := &tracked{job: job, done: make(chan struct{})}
		m.jobs[job.ID] = t
		if !job.State.inFlight() {
			close(t.done)
			continue
		}
		// A job found "running" died with the daemon; its on-disk record
		// moves back to queued before the queue sees it, so a second
		// crash before the rerun starts recovers it again.
		job.State = StateQueued
		job.Recovered++
		if perr := m.cfg.Store.Persist(job); perr != nil {
			m.mu.Unlock()
			return 0, perr
		}
		m.queued++
		m.queue <- t
		recovered++
		m.mRecovered.Inc()
		m.cfg.Store.Event(now, job.ID, "recovered", fmt.Sprintf("restart %d", job.Recovered))
	}
	m.gQueued.Set(float64(m.queued))
	m.mu.Unlock()

	for i := 0; i < m.cfg.MaxConcurrent; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return recovered, nil
}

// Wait blocks until every worker has drained — call it after the Start
// context is cancelled to let running jobs reach their checkpoint-and-
// park safe point before the process exits.
func (m *Manager) Wait() { m.wg.Wait() }

// meanJobSecondsLocked is the admission cost model: the mean wall time
// of completed jobs, or the configured prior before any data exists.
func (m *Manager) meanJobSecondsLocked() float64 {
	if m.finished == 0 {
		return m.cfg.EstimateSeconds
	}
	return m.totalSec / float64(m.finished)
}

// retryAfterLocked estimates when a rejected client should try again:
// the time for the backlog to drain one queue slot through
// MaxConcurrent workers, clamped to [1s, 5m].
func (m *Manager) retryAfterLocked() time.Duration {
	est := m.meanJobSecondsLocked() * float64(m.queued+m.running+1) / float64(m.cfg.MaxConcurrent)
	d := time.Duration(math.Ceil(est)) * time.Second
	return min(max(d, time.Second), 5*time.Minute)
}

// Submit admits one job: spec and graph checks, then admission control
// (queue depth and, when configured, the pending worker-seconds budget),
// then durable creation and enqueue. A *BusyError rejection carries the
// Retry-After hint.
func (m *Manager) Submit(spec Spec, g *uncertain.Graph) (*Job, error) {
	p, err := spec.params()
	if err != nil {
		return nil, err
	}
	if err := p.CheckGraph(g); err != nil {
		return nil, badRequestWrap(err, "jobs: %v", err)
	}
	if m.ctx == nil || m.ctx.Err() != nil {
		return nil, ErrShuttingDown
	}

	m.mu.Lock()
	if m.queued >= m.cfg.QueueDepth {
		retry := m.retryAfterLocked()
		m.mu.Unlock()
		m.mRejected.Inc()
		return nil, &BusyError{Reason: fmt.Sprintf("queue full (%d waiting)", m.cfg.QueueDepth), RetryAfter: retry}
	}
	if budget := m.cfg.MaxPendingSeconds; budget > 0 {
		mean := m.meanJobSecondsLocked()
		if pending := mean * float64(m.queued+m.running+1); pending > budget {
			retry := m.retryAfterLocked()
			m.mu.Unlock()
			m.mRejected.Inc()
			return nil, &BusyError{Reason: fmt.Sprintf("pending work ~%.0fs exceeds the %.0fs budget", pending, budget), RetryAfter: retry}
		}
	}
	// Reserve the queue slot while still holding the lock, so concurrent
	// submissions cannot both pass the depth check and overfill.
	m.queued++
	m.gQueued.Set(float64(m.queued))
	m.mu.Unlock()

	now := time.Now()
	job, err := m.cfg.Store.Create(spec, g, now)
	if err != nil {
		m.mu.Lock()
		m.queued--
		m.gQueued.Set(float64(m.queued))
		m.mu.Unlock()
		return nil, err
	}
	t := &tracked{job: job, done: make(chan struct{})}
	m.mu.Lock()
	m.jobs[job.ID] = t
	m.mu.Unlock()
	m.queue <- t
	m.mSubmitted.Inc()
	m.cfg.Store.Event(now, job.ID, "submitted",
		fmt.Sprintf("k=%d eps=%g nodes=%d edges=%d", spec.K, spec.Epsilon, job.Nodes, job.Edges))
	m.cfg.Obs.Log("jobs: submitted", "id", job.ID, "k", spec.K, "eps", spec.Epsilon,
		"nodes", job.Nodes, "edges", job.Edges)
	return m.snapshotJob(t), nil
}

// snapshotJob copies the record under the lock so handlers never see a
// field mid-mutation.
func (m *Manager) snapshotJob(t *tracked) *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := *t.job
	return &j
}

// Status is a Job record plus the live scheduling view the in-memory
// manager adds on top of the durable state.
type Status struct {
	Job
	// Progress is the running σ-search's completed fraction in [0,1]
	// (from the job's private run.progress gauge); zero when not running.
	Progress float64 `json:"progress,omitempty"`
	// ETASeconds estimates the running search's remaining wall time.
	ETASeconds float64 `json:"eta_seconds,omitempty"`
}

// Get returns one job's status. ErrUnknownJob when the ID was never
// seen.
func (m *Manager) Get(id string) (Status, error) {
	m.mu.Lock()
	t, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return Status{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	st := Status{Job: *t.job}
	jobObs := t.obs
	m.mu.Unlock()
	if st.State == StateRunning && jobObs != nil {
		snap := jobObs.Registry().Snapshot()
		st.Progress = snap.Gauges[obs.ProgressGauge]
		st.ETASeconds = snap.Gauges[obs.ETAGauge]
	}
	return st, nil
}

// List returns every known job's status, oldest submission first.
func (m *Manager) List() []Status {
	m.mu.Lock()
	ids := make([]string, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	m.mu.Unlock()
	sort.Strings(ids)
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if st, err := m.Get(id); err == nil {
			out = append(out, st)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].SubmittedAt.Before(out[j].SubmittedAt) })
	return out
}

// Done exposes a job's completion signal (closed at any terminal state,
// or when a shutdown parks the job). ErrUnknownJob for unknown IDs.
func (m *Manager) Done(id string) (<-chan struct{}, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return t.done, nil
}

// Cancel stops a job: a queued job is marked cancelled in place (the
// worker skips it on dequeue), a running one has its context cancelled
// and parks at cancelled once the search stops at its next safe point.
// Terminal jobs return an error.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	switch t.job.State {
	case StateQueued:
		t.cancelRequested = true
		t.job.State = StateCancelled
		t.job.FinishedAt = time.Now()
		if err := m.cfg.Store.Persist(t.job); err != nil {
			return err
		}
		m.queued--
		m.gQueued.Set(float64(m.queued))
		m.mCancelled.Inc()
		m.cfg.Store.Event(t.job.FinishedAt, id, "cancelled", "while queued")
		close(t.done)
		return nil
	case StateRunning:
		t.cancelRequested = true
		if t.cancel != nil {
			t.cancel()
		}
		return nil
	default:
		return &BadRequestError{msg: fmt.Sprintf("jobs: job %s is already %s", id, t.job.State)}
	}
}

// worker pulls jobs off the queue until the Start context ends.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case t := <-m.queue:
			m.runJob(t)
		}
	}
}

// runJob drives one job from dequeue to a terminal (or parked) state.
func (m *Manager) runJob(t *tracked) {
	m.mu.Lock()
	if t.job.State != StateQueued || t.cancelRequested {
		// Cancelled while waiting; Cancel already persisted and closed.
		m.mu.Unlock()
		return
	}
	jobCtx, cancel := context.WithCancel(m.ctx)
	defer cancel()
	t.cancel = cancel
	t.obs = obs.NewObserver()
	t.job.State = StateRunning
	t.job.StartedAt = time.Now()
	m.queued--
	m.running++
	m.gQueued.Set(float64(m.queued))
	m.gRunning.Set(float64(m.running))
	job := *t.job
	m.mu.Unlock()

	m.cfg.Store.Persist(&job)
	m.cfg.Store.Event(job.StartedAt, job.ID, "started", "")
	m.cfg.Obs.Log("jobs: started", "id", job.ID, "recovered", job.Recovered)

	run := m.runFn
	if run == nil {
		run = m.anonymize
	}
	res, runErr := run(jobCtx, t, job)
	m.finish(t, res, runErr)
}

// anonymize loads the job's durable input, hands any surviving
// checkpoint to the σ-search, and runs it under the job's context. A
// checkpoint that cannot be read (torn, hand-edited, from another build)
// or no longer matches (ErrCheckpointMismatch) is discarded — logged and
// journaled as checkpoint-discarded — and the job reruns from scratch
// rather than failing.
func (m *Manager) anonymize(ctx context.Context, t *tracked, job Job) (*core.Result, error) {
	g, err := m.cfg.Store.LoadInput(job.ID)
	if err != nil {
		return nil, err
	}
	params, err := m.coreParams(t, job)
	if err != nil {
		return nil, err
	}
	ck, lerr := core.LoadCheckpoint(m.cfg.Store.CheckpointPath(job.ID))
	switch {
	case lerr == nil:
		params.Resume = ck
	case !errors.Is(lerr, os.ErrNotExist):
		m.discardCheckpoint(job.ID, lerr)
	}

	res, err := core.AnonymizeContext(ctx, g, params)
	if err != nil && errors.Is(err, core.ErrCheckpointMismatch) && params.Resume != nil {
		m.discardCheckpoint(job.ID, err)
		params.Resume = nil
		res, err = core.AnonymizeContext(ctx, g, params)
	}
	return res, err
}

// discardCheckpoint records why a job's checkpoint is not resumed.
func (m *Manager) discardCheckpoint(id string, cause error) {
	m.cfg.Obs.Log("jobs: discarding checkpoint", "id", id, "error", cause.Error())
	m.cfg.Store.Event(time.Now(), id, "checkpoint-discarded", cause.Error())
}

// coreParams maps a job spec onto the search parameterization, wiring
// the job's private observer, its spool checkpoint path and the worker
// budget.
func (m *Manager) coreParams(t *tracked, job Job) (core.Params, error) {
	p, err := job.Spec.params()
	if err != nil {
		return core.Params{}, err
	}
	p.Workers = m.cfg.WorkersPerJob
	p.Obs = t.obs
	p.CheckpointPath = m.cfg.Store.CheckpointPath(job.ID)
	p.CheckpointEvery = max(m.cfg.CheckpointEvery, 0)
	return p, nil
}

// finish settles the job's terminal (or parked) state from the search
// outcome.
func (m *Manager) finish(t *tracked, res *core.Result, runErr error) {
	// The result bytes must land before anything — in memory or on disk
	// — can say "done": the status endpoint serves the in-memory state,
	// so a client that polls done and immediately fetches the result
	// must find the file already there. A failed write demotes the job
	// to failed below.
	var writeErr error
	if runErr == nil {
		writeErr = m.cfg.Store.WriteResult(t.job.ID, res.Graph)
	}
	now := time.Now()
	m.mu.Lock()
	t.cancel = nil
	// The private observer only feeds Get's live progress view of a
	// running job; a rerun after parking gets a fresh one.
	t.obs = nil
	m.running--
	m.gRunning.Set(float64(m.running))
	cancelRequested := t.cancelRequested
	job := t.job
	shutdown := m.ctx.Err() != nil && !cancelRequested

	var event, detail string
	var parked bool
	switch {
	case runErr == nil && writeErr == nil:
		job.State = StateDone
		job.FinishedAt = now
		job.EpsilonTilde = res.EpsilonTilde
		job.Sigma = res.Sigma
		event = "done"
		detail = fmt.Sprintf("eps_tilde=%.6f sigma=%.6f", res.EpsilonTilde, res.Sigma)
	case runErr == nil:
		// The search succeeded but its result could not be persisted —
		// without the bytes there is nothing to hand the client.
		job.State = StateFailed
		job.FinishedAt = now
		job.Error = writeErr.Error()
		event = "failed"
		detail = writeErr.Error()
	case cancelRequested:
		job.State = StateCancelled
		job.FinishedAt = now
		job.Error = runErr.Error()
		event = "cancelled"
		detail = runErr.Error()
	case shutdown && errors.Is(runErr, context.Canceled):
		// Daemon shutdown: the search already checkpointed at its safe
		// point; park the job back at queued so the next daemon life
		// resumes it.
		job.State = StateQueued
		job.StartedAt = time.Time{}
		parked = true
		event = "interrupted"
		detail = "daemon shutdown; parked for recovery"
	default:
		job.State = StateFailed
		job.FinishedAt = now
		job.Error = runErr.Error()
		event = "failed"
		detail = runErr.Error()
	}
	// Counter accounting belongs in the same critical section that sets
	// the state: a client that reads a done status and then scrapes
	// /metrics must see the completion counted.
	switch job.State {
	case StateDone:
		m.mCompleted.Inc()
		if !job.StartedAt.IsZero() {
			m.lat.Observe(now.Sub(job.StartedAt))
			m.totalSec += now.Sub(job.StartedAt).Seconds()
			m.finished++
		}
	case StateFailed:
		m.mFailed.Inc()
	case StateCancelled:
		m.mCancelled.Inc()
	}
	jobCopy := *job
	m.mu.Unlock()

	if perr := m.cfg.Store.Persist(&jobCopy); perrLog(m, jobCopy.ID, perr) {
		// A job whose terminal record could not be persisted is still
		// terminal in memory; recovery will rerun it, which is safe
		// (deterministic) if wasteful.
	}
	m.cfg.Store.Event(now, jobCopy.ID, event, detail)
	m.cfg.Obs.Log("jobs: "+event, "id", jobCopy.ID, "detail", detail)

	m.mu.Lock()
	if !parked {
		close(t.done)
	} else {
		m.queued++
		m.gQueued.Set(float64(m.queued))
	}
	m.mu.Unlock()
}

// perrLog reports and logs a persistence error; split out so the call
// site stays one line.
func perrLog(m *Manager, id string, err error) bool {
	if err == nil {
		return false
	}
	m.cfg.Obs.Log("jobs: persisting terminal state failed", "id", id, "error", err.Error())
	return true
}
