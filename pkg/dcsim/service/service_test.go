package service

import (
	"bytes"
	"context"
	"errors"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/pkg/dcsim"
	"repro/pkg/dcsim/sweep"
)

// tinyGrid is a 2-cell grid whose runs finish in a few milliseconds.
func tinyGrid() sweep.Grid {
	return sweep.Grid{
		Name: "tiny",
		Base: dcsim.Scenario{
			Workload:      dcsim.Workload{VMs: 6, Groups: 2, Hours: 1},
			MaxServers:    5,
			PeriodSamples: 240,
		},
		Axes:     []sweep.Axis{{Field: "policy", Values: []any{"bfd", "corr-aware"}}},
		Replicas: 2,
	}
}

// gateExecutor blocks every run until released, then executes it
// in-process — full control over when a job makes progress. Cancellation
// passes straight through, so a gated run cancels promptly.
type gateExecutor struct {
	release chan struct{}
	local   sweep.LocalExecutor
}

func newGateExecutor() *gateExecutor {
	return &gateExecutor{release: make(chan struct{})}
}

func (e *gateExecutor) ExecuteCell(ctx context.Context, run sweep.CellRun) (*dcsim.Result, error) {
	select {
	case <-e.release:
		return e.local.ExecuteCell(ctx, run)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// failExecutor fails every run.
type failExecutor struct{}

func (failExecutor) ExecuteCell(ctx context.Context, run sweep.CellRun) (*dcsim.Result, error) {
	return nil, errors.New("boom")
}

// waitState polls until the job reaches want (or any terminal state) and
// returns the final snapshot.
func waitState(t *testing.T, m *Manager, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return Status{}
}

// refBytes runs the grid through plain sweep.Run and renders the exact
// report document `dcsim sweep` writes — the determinism reference.
func refBytes(t *testing.T, g sweep.Grid) []byte {
	t.Helper()
	res, err := sweep.Run(context.Background(), g, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

func TestJobLifecycleDeterminism(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	st, err := m.Submit(tinyGrid())
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j1" {
		t.Fatalf("first job ID = %q, want j1", st.ID)
	}
	if st.CellsTotal != 2 || st.RunsTotal != 4 || st.Replicas != 2 {
		t.Fatalf("size = %d cells / %d runs / %d replicas, want 2/4/2", st.CellsTotal, st.RunsTotal, st.Replicas)
	}
	final := waitState(t, m, "j1", StateDone)
	if final.CellsDone != 2 || final.RunsDone != 4 {
		t.Fatalf("progress = %d cells / %d runs, want 2/4", final.CellsDone, final.RunsDone)
	}
	if final.Started == nil || final.Finished == nil {
		t.Fatal("terminal job missing started/finished stamps")
	}
	res, data, err := m.Result("j1")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("done job's result not complete")
	}
	if want := refBytes(t, tinyGrid()); !bytes.Equal(data, want) {
		t.Fatalf("service result bytes differ from direct sweep (%d vs %d bytes)", len(data), len(want))
	}
}

// oversizedGrids are small grids that expand past the sweep package's
// 1<<20-run bound: 20 param axes of 10 values each (10^20 cells, which
// overflows int) and a single cell run 1<<20+1 times.
func oversizedGrids() map[string]sweep.Grid {
	overflow := sweep.Grid{Base: tinyGrid().Base}
	for i := 0; i < 20; i++ {
		vals := make([]any, 10)
		for v := range vals {
			vals[v] = float64(v)
		}
		overflow.Axes = append(overflow.Axes, sweep.Axis{Field: "param:p" + strconv.Itoa(i), Values: vals})
	}
	replicas := tinyGrid()
	replicas.Axes[0].Values = []any{"bfd"}
	replicas.Replicas = 1<<20 + 1
	return map[string]sweep.Grid{"overflow": overflow, "replicas": replicas}
}

func TestSubmitRejectsBadGrid(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	g := tinyGrid()
	g.Axes[0].Values = []any{"no-such-policy"}
	if _, err := m.Submit(g); err == nil {
		t.Fatal("submit of unknown policy succeeded")
	}
	for name, g := range oversizedGrids() {
		if _, err := m.Submit(g); err == nil || !strings.Contains(err.Error(), "more than") {
			t.Fatalf("submit of %s grid = %v, want a size error", name, err)
		}
	}
	if _, err := m.Status("j99"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("status of unknown job = %v, want ErrNotFound", err)
	}
}

// TestSubmitRejectsOverflowingHours: a grid whose synthetic horizon
// overflows a time.Duration used to be queued, and its job's generator
// panic killed the process. Submit must reject it up front.
func TestSubmitRejectsOverflowingHours(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	g := tinyGrid()
	g.Base.Workload.Hours = 2562048
	if _, err := m.Submit(g); err == nil || !strings.Contains(err.Error(), "hours") {
		t.Fatalf("submit of hours=2562048 = %v, want an hours error", err)
	}
}

// TestSubmitRejectsOversizedSyntheticWorkload: one grid cell whose
// synthetic population would hold more samples than the generator bound
// (here 100M group profiles for 4 VMs, ~230 GB) is rejected at Submit,
// before any job could allocate it.
func TestSubmitRejectsOversizedSyntheticWorkload(t *testing.T) {
	huge := dcsim.Workload{VMs: 4, Groups: 100000000, Hours: 24}
	// Stop here where the bound is missing: a queued job would allocate.
	if err := dcsim.CheckScenario(dcsim.Scenario{Workload: huge}); err == nil {
		t.Fatal("CheckScenario accepted 100M group profiles")
	}
	// The gate is never released, so no cell of this grid runs.
	m := NewManager(Config{Executor: newGateExecutor()})
	defer m.Close()
	g := tinyGrid()
	g.Base.Workload = dcsim.Workload{VMs: huge.VMs, Hours: huge.Hours}
	g.Axes = append(g.Axes, sweep.Axis{Field: "groups", Values: []any{2, huge.Groups}})
	if _, err := m.Submit(g); err == nil || !strings.Contains(err.Error(), "samples") {
		t.Fatalf("submit of a 100M-group cell = %v, want a sample-bound error", err)
	}
}

// TestSubmitRejectsOversizedCostMatrix: one corr-aware grid cell whose
// cost matrix would pass the 2 GiB bound (100k VMs over 1 h, ~37 GiB of
// pair peaks) is rejected at Submit, before any job could allocate it.
func TestSubmitRejectsOversizedCostMatrix(t *testing.T) {
	huge := dcsim.Workload{VMs: 100000, Groups: 1, Hours: 1}
	// Stop here where the bound is missing: a queued job would allocate.
	if err := dcsim.CheckScenario(dcsim.Scenario{Workload: huge, Policy: "corr-aware", Governor: "eqn4"}); err == nil {
		t.Fatal("CheckScenario accepted a cost matrix for 100k VMs")
	}
	// The gate is never released, so no cell of this grid runs.
	m := NewManager(Config{Executor: newGateExecutor()})
	defer m.Close()
	g := tinyGrid()
	g.Base.Workload = dcsim.Workload{Groups: huge.Groups, Hours: huge.Hours}
	g.Axes = append(g.Axes, sweep.Axis{Field: "vms", Values: []any{2, huge.VMs}})
	if _, err := m.Submit(g); err == nil || !strings.Contains(err.Error(), "cost matrix for 100000 VMs") {
		t.Fatalf("submit of a 100k-VM corr-aware cell = %v, want the cost matrix bound's error", err)
	}
}

func TestQueueFullAndSkipCancelledQueued(t *testing.T) {
	gate := newGateExecutor()
	m := NewManager(Config{QueueCapacity: 2, Concurrency: 1, Workers: 1, Executor: gate})
	defer m.Close()
	// j1 occupies the single run slot (gated); j2 and j3 fill the queue.
	if _, err := m.Submit(tinyGrid()); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, "j1", StateRunning)
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(tinyGrid()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Submit(tinyGrid()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit over capacity = %v, want ErrQueueFull", err)
	}
	// Cancelling a queued job is immediate, and the runner must skip it.
	st, err := m.Cancel("j2")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("cancelled queued job state = %s", st.State)
	}
	close(gate.release)
	waitState(t, m, "j1", StateDone)
	waitState(t, m, "j3", StateDone)
	if st, _ := m.Status("j2"); st.State != StateCancelled {
		t.Fatalf("skipped job state = %s, want cancelled", st.State)
	}
}

func TestCancelRunning(t *testing.T) {
	gate := newGateExecutor()
	m := NewManager(Config{Executor: gate})
	defer m.Close()
	if _, err := m.Submit(tinyGrid()); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, "j1", StateRunning)
	if _, err := m.Cancel("j1"); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, m, "j1", StateCancelled)
	if st.Error == "" {
		t.Fatal("cancelled job has no error message")
	}
	// Cancel on a terminal job is an idempotent no-op.
	again, err := m.Cancel("j1")
	if err != nil || again.State != StateCancelled {
		t.Fatalf("re-cancel = %s, %v", again.State, err)
	}
	if _, _, err := m.Result("j1"); !errors.Is(err, ErrNoResult) {
		t.Fatalf("result of cell-less cancelled job = %v, want ErrNoResult", err)
	}
}

// TestConcurrentJobsBoundedQueue is the load shape the service exists
// for: many jobs thrown at a queue smaller than the burst. Submitters
// retry on ErrQueueFull; every job completes, and every result is
// byte-identical to the direct sweep — concurrency moves work, never
// bytes.
func TestConcurrentJobsBoundedQueue(t *testing.T) {
	const n = 10
	m := NewManager(Config{QueueCapacity: 3, Concurrency: 2, Workers: 2})
	defer m.Close()
	want := refBytes(t, tinyGrid())

	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				st, err := m.Submit(tinyGrid())
				if errors.Is(err, ErrQueueFull) {
					time.Sleep(2 * time.Millisecond)
					continue
				}
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				ids[i] = st.ID
				return
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range ids {
		waitState(t, m, id, StateDone)
		_, data, err := m.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("job %s result bytes differ from direct sweep", id)
		}
	}
	if got := len(m.List()); got != n {
		t.Fatalf("List() = %d jobs, want %d", got, n)
	}
}

// TestDrainGraceful pins the SIGINT shape: intake closed, queued jobs
// cancelled, running jobs allowed to finish inside the window.
func TestDrainGraceful(t *testing.T) {
	gate := newGateExecutor()
	m := NewManager(Config{QueueCapacity: 4, Concurrency: 1, Workers: 1, Executor: gate})
	defer m.Close()
	for i := 0; i < 3; i++ {
		if _, err := m.Submit(tinyGrid()); err != nil {
			t.Fatal(err)
		}
	}
	waitState(t, m, "j1", StateRunning)

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Drain(ctx)
	}()
	// The queued jobs cancel promptly, while j1 keeps running.
	waitState(t, m, "j2", StateCancelled)
	waitState(t, m, "j3", StateCancelled)
	if _, err := m.Submit(tinyGrid()); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining = %v, want ErrDraining", err)
	}
	close(gate.release)
	<-drained
	if st, _ := m.Status("j1"); st.State != StateDone {
		t.Fatalf("running job after graceful drain = %s, want done", st.State)
	}
	if _, data, err := m.Result("j1"); err != nil || !bytes.Equal(data, refBytes(t, tinyGrid())) {
		t.Fatalf("drained job result mismatch (err %v)", err)
	}
}

// TestDrainDeadline pins the other half: a running job that does not
// finish inside the window is cancelled, and Drain still returns.
func TestDrainDeadline(t *testing.T) {
	gate := newGateExecutor() // never released
	m := NewManager(Config{Concurrency: 1, Workers: 1, Executor: gate})
	defer m.Close()
	if _, err := m.Submit(tinyGrid()); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, "j1", StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	m.Drain(ctx)
	if st, _ := m.Status("j1"); st.State != StateCancelled {
		t.Fatalf("running job after deadline drain = %s, want cancelled", st.State)
	}
}

func TestSubscriptionStream(t *testing.T) {
	gate := newGateExecutor()
	m := NewManager(Config{Executor: gate, Workers: 1})
	defer m.Close()
	if _, err := m.Submit(tinyGrid()); err != nil {
		t.Fatal(err)
	}
	sub, err := m.Subscribe("j1")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// Let one run through and the rest only once its progress event is
	// read: an unread progress event is dropped when the terminal one
	// arrives, so a job that finished first would show none.
	gate.release <- struct{}{}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var types []string
	var progressSeen int
	var last Event
	for {
		ev, ok := sub.Next(ctx)
		if !ok {
			break
		}
		types = append(types, ev.Type)
		if ev.Type == "progress" {
			if progressSeen == 0 {
				close(gate.release)
			}
			progressSeen++
			p := ev.Data.(ProgressEvent)
			if p.Job != "j1" || p.RunsTotal != 4 {
				t.Fatalf("bad progress payload: %+v", p)
			}
		}
		last = ev
	}
	if len(types) == 0 || types[0] != "state" {
		t.Fatalf("stream types = %v, want a leading state snapshot", types)
	}
	if progressSeen == 0 {
		t.Fatalf("stream types = %v, no progress events", types)
	}
	if last.Type != string(StateDone) {
		t.Fatalf("last event = %q, want %q", last.Type, StateDone)
	}
	st := last.Data.(Status)
	if st.State != StateDone || st.CellsDone != 2 {
		t.Fatalf("terminal payload = %+v", st)
	}

	// Subscribing to a finished job yields exactly the terminal event.
	sub2, err := m.Subscribe("j1")
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	ev, ok := sub2.Next(ctx)
	if !ok || ev.Type != string(StateDone) {
		t.Fatalf("late subscribe first event = %q (ok %v), want done", ev.Type, ok)
	}
	if _, ok := sub2.Next(ctx); ok {
		t.Fatal("late subscribe stream did not end after terminal event")
	}
}

// metricValue extracts one sample value from OpenMetrics text.
func metricValue(t *testing.T, text, sample string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(sample) + ` (\S+)$`)
	match := re.FindStringSubmatch(text)
	if match == nil {
		t.Fatalf("sample %q not found in exposition:\n%s", sample, text)
	}
	v, err := strconv.ParseFloat(match[1], 64)
	if err != nil {
		t.Fatalf("sample %q value %q: %v", sample, match[1], err)
	}
	return v
}

// TestMetricsMatchLifecycle runs jobs to every terminal state and checks
// the exposition against the actual counts.
func TestMetricsMatchLifecycle(t *testing.T) {
	m := NewManager(Config{QueueCapacity: 8})
	defer m.Close()
	// Two complete jobs.
	for i := 0; i < 2; i++ {
		st, err := m.Submit(tinyGrid())
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, st.ID, StateDone)
	}
	// Failed and cancelled counters are covered by
	// TestMetricsFailedAndCancelled (an executor is per-manager, not
	// per-job, so those states need their own managers).
	buf := &bytes.Buffer{}
	if err := m.WriteOpenMetrics(buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !bytes.HasSuffix(buf.Bytes(), []byte("# EOF\n")) {
		t.Fatal("exposition does not end with # EOF")
	}
	if v := metricValue(t, text, "dcsim_jobs_submitted_total"); v != 2 {
		t.Fatalf("jobs_submitted = %v, want 2", v)
	}
	if v := metricValue(t, text, "dcsim_jobs_completed_total"); v != 2 {
		t.Fatalf("jobs_completed = %v, want 2", v)
	}
	if v := metricValue(t, text, "dcsim_cells_run_total"); v != 4 {
		t.Fatalf("cells_run = %v, want 4 (2 jobs × 2 cells)", v)
	}
	if v := metricValue(t, text, "dcsim_runs_total"); v != 8 {
		t.Fatalf("runs = %v, want 8 (2 jobs × 4 runs)", v)
	}
	if v := metricValue(t, text, "dcsim_queue_depth"); v != 0 {
		t.Fatalf("queue_depth = %v, want 0", v)
	}
	if v := metricValue(t, text, "dcsim_jobs_in_flight"); v != 0 {
		t.Fatalf("jobs_in_flight = %v, want 0", v)
	}
	if v := metricValue(t, text, "dcsim_job_duration_seconds_count"); v != 2 {
		t.Fatalf("job_duration count = %v, want 2", v)
	}
	if v := metricValue(t, text, "dcsim_cell_duration_seconds_count"); v != 8 {
		t.Fatalf("cell_duration count = %v, want 8 runs", v)
	}
	if v := metricValue(t, text, `dcsim_job_duration_seconds_bucket{le="+Inf"}`); v != 2 {
		t.Fatalf("job_duration +Inf bucket = %v, want 2", v)
	}
}

// TestMetricsFailedAndCancelled covers the failure-path counters.
func TestMetricsFailedAndCancelled(t *testing.T) {
	m := NewManager(Config{Executor: failExecutor{}})
	defer m.Close()
	st, err := m.Submit(tinyGrid())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		s, _ := m.Status(st.ID)
		if s.State.Terminal() {
			if s.State != StateFailed {
				t.Fatalf("fail-executor job state = %s", s.State)
			}
			if s.Error == "" {
				t.Fatal("failed job has no error")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never failed")
		}
		time.Sleep(2 * time.Millisecond)
	}

	gate := newGateExecutor()
	mg := NewManager(Config{QueueCapacity: 2, Concurrency: 1, Executor: gate})
	defer mg.Close()
	if _, err := mg.Submit(tinyGrid()); err != nil { // occupies the slot
		t.Fatal(err)
	}
	waitState(t, mg, "j1", StateRunning)
	if _, err := mg.Submit(tinyGrid()); err != nil { // queued
		t.Fatal(err)
	}
	if _, err := mg.Cancel("j2"); err != nil {
		t.Fatal(err)
	}
	if _, err := mg.Cancel("j1"); err != nil {
		t.Fatal(err)
	}
	waitState(t, mg, "j1", StateCancelled)

	buf := &bytes.Buffer{}
	if err := m.WriteOpenMetrics(buf); err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, buf.String(), "dcsim_jobs_failed_total"); v != 1 {
		t.Fatalf("jobs_failed = %v, want 1", v)
	}
	buf.Reset()
	if err := mg.WriteOpenMetrics(buf); err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, buf.String(), "dcsim_jobs_cancelled_total"); v != 2 {
		t.Fatalf("jobs_cancelled = %v, want 2 (one queued, one running)", v)
	}
}

// TestManagerCloseIsPrompt makes sure Close with work in flight returns.
func TestManagerCloseIsPrompt(t *testing.T) {
	gate := newGateExecutor() // never released: jobs only end by cancellation
	m := NewManager(Config{QueueCapacity: 4, Concurrency: 2, Executor: gate})
	for i := 0; i < 4; i++ {
		if _, err := m.Submit(tinyGrid()); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() { m.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close hung")
	}
	for _, st := range m.List() {
		if !st.State.Terminal() {
			t.Fatalf("job %s not terminal after Close: %s", st.ID, st.State)
		}
	}
}
