// Package service turns the sweep engine into a long-running
// simulation-as-a-service: an in-memory job Manager with a bounded run
// queue and configurable concurrency, a per-job state machine
// (queued → running → done/failed/cancelled), live progress events fed by
// the sweep engine's Progress hook, and an OpenMetrics exporter — plus an
// HTTP front end (Server) exposing all of it as a job API with
// Server-Sent-Events streaming. `dcsim serve` composes a Manager with the
// executor seam (in-process slots, HTTP worker fleets, or both) and serves
// it.
//
// Determinism survives service-ification: a job is nothing but a
// sweep.Run of the submitted grid, so its Result — and the exact bytes of
// ResultJSON — is byte-identical to `dcsim sweep` on the same grid and
// seed, wherever the cells execute. Progress and metrics observe runs,
// they never perturb them.
//
// Memory stays bounded under sustained load: the queue rejects
// submissions beyond its capacity (ErrQueueFull — callers retry),
// per-subscriber progress events coalesce to the latest rather than
// accumulate, and a job holds its aggregate Result, not its raw runs.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/pkg/dcsim/sweep"
	"repro/pkg/dcsim/sweep/fleet"
)

// State is a job's lifecycle state. Transitions are
// queued → running → done | failed | cancelled, with the shortcut
// queued → cancelled for jobs cancelled (or drained) before a run slot
// picked them up. The three terminal states never change again.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Errors the Manager returns; the HTTP layer maps them to status codes.
var (
	// ErrQueueFull rejects a submission when the run queue is at
	// capacity. The condition is transient: callers retry after jobs
	// drain from the queue.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining rejects submissions after Drain or Close began.
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrNotFound marks an unknown job ID.
	ErrNotFound = errors.New("service: no such job")
	// ErrNoResult marks a result request for a job that has none (yet):
	// still queued or running, or failed/cancelled before any cell
	// completed.
	ErrNoResult = errors.New("service: job has no result")
)

// Config tunes a Manager.
type Config struct {
	// QueueCapacity bounds the jobs waiting for a run slot (the running
	// ones excluded). Submissions beyond it fail with ErrQueueFull.
	// 0 selects 16.
	QueueCapacity int
	// Concurrency is the number of jobs running at once. 0 selects 1 —
	// jobs then execute strictly in submission order, each still
	// fanning its cells out over Workers.
	Concurrency int
	// Workers is the sweep.Options.Workers value for every job: the
	// concurrent runs within one job. 0 selects GOMAXPROCS. `dcsim serve`
	// sets it by the fan-out rule it shares with `dcsim sweep`: with
	// -remote, workers × in-flight + local slots; with -fleet, that for
	// the workers registered at start (none, for the service), raised to
	// at least 32 and GOMAXPROCS.
	Workers int
	// Executor runs each job's cell-replicas. Nil selects the
	// in-process LocalExecutor; a fleet.Executor fans jobs out to a
	// fixed or elastic set of HTTP workers instead. It is shared by all
	// jobs and must be safe for concurrent use (both bundled executors are).
	Executor sweep.Executor
	// Fleet, when set, is the elastic-fleet membership this service
	// coordinates: Server mounts its /fleet endpoints (registration,
	// heartbeats, listing) and WriteOpenMetrics renders the dcsim_fleet_*
	// families from its stats. Pair it with a fleet.Executor over the
	// same registry as Executor.
	Fleet *fleet.Registry
	// Logf, when set, receives one line per job transition. Nil means
	// silent.
	Logf func(format string, args ...any)
}

// Status is a job's public snapshot: identity, state, progress counters,
// and timestamps. It is the JSON the job API serves and the payload of
// state-change events.
type Status struct {
	// ID is the manager-assigned job identifier ("j1", "j2", ...).
	ID string `json:"id"`
	// Grid is the submitted grid's name ("" when the grid has none).
	Grid string `json:"grid,omitempty"`
	// State is the lifecycle state at snapshot time.
	State State `json:"state"`
	// Replicas, CellsTotal and RunsTotal describe the job's size;
	// CellsDone and RunsDone its progress (runs are cell-replicas).
	Replicas   int `json:"replicas"`
	CellsTotal int `json:"cells_total"`
	RunsTotal  int `json:"runs_total"`
	CellsDone  int `json:"cells_done"`
	RunsDone   int `json:"runs_done"`
	// Created, Started and Finished stamp the lifecycle transitions;
	// Started and Finished are absent while the job has not reached
	// them.
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Error carries the failure message of a failed job (and the
	// cancellation cause of a cancelled one).
	Error string `json:"error,omitempty"`
}

// job is the Manager's internal record. mu guards every mutable field;
// the lock order is Manager.mu before job.mu before subscription.mu.
type job struct {
	id   string
	grid sweep.Grid

	mu         sync.Mutex
	state      State
	created    time.Time
	started    time.Time
	finished   time.Time
	cellsDone  int
	runsDone   int
	cellsTotal int
	runsTotal  int
	errMsg     string
	cancelled  bool               // a caller (or drain) asked for cancellation
	cancel     context.CancelFunc // set while running
	runCtx     context.Context    // set while running
	result     *sweep.Result
	resultJSON []byte // exact `dcsim sweep` report bytes
	subs       map[*Subscription]struct{}
}

// statusLocked snapshots the job; callers hold j.mu.
func (j *job) statusLocked() Status {
	st := Status{
		ID:         j.id,
		Grid:       j.grid.Name,
		State:      j.state,
		Replicas:   j.grid.Replicas,
		CellsTotal: j.cellsTotal,
		RunsTotal:  j.runsTotal,
		CellsDone:  j.cellsDone,
		RunsDone:   j.runsDone,
		Created:    j.created,
		Error:      j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// Manager owns the job queue and lifecycle. Construct with NewManager;
// Close (or Drain then Close) releases its goroutines.
type Manager struct {
	cfg     Config
	queue   chan *job
	metrics *metrics

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // job IDs in submission order
	seq      int
	draining bool
	closed   bool

	runningWG sync.WaitGroup // claims in flight (running jobs)
	runnerWG  sync.WaitGroup // runner goroutines
}

// NewManager starts a Manager: cfg.Concurrency runner goroutines over a
// queue of cfg.QueueCapacity waiting jobs.
func NewManager(cfg Config) *Manager {
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 16
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	m := &Manager{
		cfg:     cfg,
		queue:   make(chan *job, cfg.QueueCapacity),
		metrics: newMetrics(),
		jobs:    map[string]*job{},
	}
	for i := 0; i < cfg.Concurrency; i++ {
		m.runnerWG.Add(1)
		go m.runner()
	}
	return m
}

// logf logs through cfg.Logf when set.
func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// Submit validates the grid and queues it as a new job, returning the
// queued snapshot. A full queue fails fast with ErrQueueFull (the
// condition is transient; retry), a draining manager with ErrDraining, an
// invalid grid with the validation error.
func (m *Manager) Submit(g sweep.Grid) (Status, error) {
	g = g.Normalized()
	if err := g.Validate(); err != nil {
		return Status{}, err
	}
	cells, err := g.Cells()
	if err != nil {
		return Status{}, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return Status{}, ErrDraining
	}
	j := &job{
		id:         fmt.Sprintf("j%d", m.seq+1),
		grid:       g,
		state:      StateQueued,
		created:    time.Now(),
		cellsTotal: len(cells),
		runsTotal:  len(cells) * g.Replicas,
		subs:       map[*Subscription]struct{}{},
	}
	select {
	case m.queue <- j:
	default:
		return Status{}, ErrQueueFull
	}
	m.seq++
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.metrics.jobsSubmitted.Add(1)
	m.metrics.queueDepth.Add(1)
	m.logf("job %s queued: grid %q, %d cells × %d replica(s)", j.id, g.Name, j.cellsTotal, g.Replicas)
	j.mu.Lock()
	st := j.statusLocked()
	j.mu.Unlock()
	return st, nil
}

// Status returns a job's snapshot.
func (m *Manager) Status(id string) (Status, error) {
	j, err := m.lookup(id)
	if err != nil {
		return Status{}, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked(), nil
}

// List snapshots every job in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	jobs := make([]*job, 0, len(m.order))
	for _, id := range m.order {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		j.mu.Lock()
		out[i] = j.statusLocked()
		j.mu.Unlock()
	}
	return out
}

// Result returns a job's sweep Result and the exact report bytes — the
// same document `dcsim sweep` writes for the grid, byte for byte. Until a
// result exists (job still queued/running, or it failed or was cancelled
// before any cell completed) it returns ErrNoResult; a cancelled job that
// completed some cells yields its partial result, marked by
// Result.Complete = false.
func (m *Manager) Result(id string) (*sweep.Result, []byte, error) {
	j, err := m.lookup(id)
	if err != nil {
		return nil, nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		return nil, nil, fmt.Errorf("%w: job %s is %s", ErrNoResult, id, j.state)
	}
	return j.result, j.resultJSON, nil
}

// Cancel requests cancellation: a queued job goes terminal immediately, a
// running one has its context cancelled (the sweep stops between samples
// and the job finalizes as cancelled, keeping completed cells). On a job
// already terminal Cancel is a no-op returning the unchanged snapshot.
func (m *Manager) Cancel(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return m.cancelLocked(j, "cancelled by request", false), nil
}

// cancelLocked implements Cancel and drain-time cancellation; callers
// hold m.mu. With queuedOnly set, running jobs are left alone — Drain's
// first phase, which gives them the deadline before pulling the plug.
func (m *Manager) cancelLocked(j *job, cause string, queuedOnly bool) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		// The job still sits in the queue channel; mark it terminal
		// here and the runner will skip it on pull.
		j.state = StateCancelled
		j.finished = time.Now()
		j.errMsg = cause
		j.cancelled = true
		m.metrics.queueDepth.Add(-1)
		m.metrics.jobsCancelled.Add(1)
		m.logf("job %s cancelled while queued", j.id)
		j.broadcastLocked(Event{Type: string(StateCancelled), Data: j.statusLocked()}, true)
	case StateRunning:
		if !queuedOnly && !j.cancelled {
			j.cancelled = true
			j.errMsg = cause
			j.cancel()
		}
	}
	return j.statusLocked()
}

// lookup resolves a job ID.
func (m *Manager) lookup(id string) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return j, nil
}

// runner is one job-execution goroutine: it claims queued jobs in order
// and runs each to a terminal state.
func (m *Manager) runner() {
	defer m.runnerWG.Done()
	for j := range m.queue {
		if !m.claim(j) {
			continue // cancelled while queued
		}
		m.execute(j)
	}
}

// claim moves a queued job to running and registers it with the drain
// accounting. It returns false for jobs already terminal (cancelled while
// they waited).
func (m *Manager) claim(j *job) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	j.state = StateRunning
	j.started = time.Now()
	m.runningWG.Add(1)
	m.metrics.queueDepth.Add(-1)
	m.metrics.jobsInFlight.Add(1)
	m.logf("job %s running", j.id)
	j.broadcastLocked(Event{Type: "state", Data: j.statusLocked()}, false)
	// Stash the context where execute can reach it without re-locking.
	j.runCtx = ctx
	return true
}

// execute runs a claimed job's sweep and finalizes it.
func (m *Manager) execute(j *job) {
	defer m.runningWG.Done()
	opts := sweep.Options{
		Workers:  m.cfg.Workers,
		Executor: m.cfg.Executor,
		Progress: func(p sweep.Progress) { m.onProgress(j, p) },
	}
	res, err := sweep.Run(j.runCtx, j.grid, opts)
	m.finalize(j, res, err)
}

// onProgress folds one engine progress event into the job counters and
// metrics, and fans it out to subscribers. It runs on the job's collector
// goroutine, so events per job are ordered.
func (m *Manager) onProgress(j *job, p sweep.Progress) {
	m.metrics.runs.Add(1)
	m.metrics.cellDur.Observe(p.Elapsed.Seconds())
	if p.Cell != nil {
		m.metrics.cellsRun.Add(1)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.runsDone = p.RunsDone
	j.cellsDone = p.CellsDone
	j.broadcastLocked(Event{Type: "progress", Data: progressPayload(j.id, p)}, false)
}

// finalize moves a running job to its terminal state, stores the result,
// and notifies subscribers and metrics.
func (m *Manager) finalize(j *job, res *sweep.Result, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancel()
	j.finished = time.Now()
	m.metrics.jobsInFlight.Add(-1)
	m.metrics.jobDur.Observe(j.finished.Sub(j.started).Seconds())
	switch {
	case err == nil:
		j.state = StateDone
		m.metrics.jobsCompleted.Add(1)
	case j.cancelled:
		j.state = StateCancelled
		if j.errMsg == "" {
			j.errMsg = err.Error()
		}
		m.metrics.jobsCancelled.Add(1)
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		m.metrics.jobsFailed.Add(1)
	}
	if res != nil && (j.state == StateDone || len(res.Cells) > 0) {
		j.result = res
		if data, jerr := res.JSON(); jerr == nil {
			// The exact document `dcsim sweep` writes: indented JSON
			// plus a trailing newline.
			j.resultJSON = append(data, '\n')
		}
	}
	m.logf("job %s %s: %d/%d cells in %s", j.id, j.state, j.cellsDone, j.cellsTotal,
		j.finished.Sub(j.started).Round(time.Millisecond))
	j.broadcastLocked(Event{Type: string(j.state), Data: j.statusLocked()}, true)
}

// Drain stops the intake and winds the backlog down: new submissions fail
// with ErrDraining, every still-queued job goes terminal as cancelled,
// and running jobs get until ctx's deadline to finish — then their
// contexts are cancelled and Drain waits for them to settle (a cancelled
// sweep stops between samples, so settling is prompt). Nothing is
// persisted: callers wanting results fetch them before the process exits.
func (m *Manager) Drain(ctx context.Context) {
	m.mu.Lock()
	m.draining = true
	var running []*job
	for _, id := range m.order {
		j := m.jobs[id]
		if st := m.cancelLocked(j, "cancelled: service draining", true); st.State == StateRunning {
			running = append(running, j)
		}
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() { m.runningWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		m.logf("drain deadline: cancelling %d running job(s)", len(running))
		m.mu.Lock()
		for _, j := range running {
			m.cancelLocked(j, "cancelled: drain deadline", false)
		}
		m.mu.Unlock()
		<-done
	}
}

// Close drains immediately (queued and running jobs are cancelled) and
// releases the runner goroutines. The Manager accepts nothing afterwards.
func (m *Manager) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: Drain cancels running jobs at once
	m.Drain(ctx)
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	m.mu.Unlock()
	m.runnerWG.Wait()
}
