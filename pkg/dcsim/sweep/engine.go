package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/pkg/dcsim"
)

// Observer receives one callback per completed cell, in completion order
// (non-deterministic under parallelism; the final Result is ordered by cell
// index regardless). Callbacks run on the collector goroutine, one at a
// time.
type Observer interface {
	OnCell(CellResult)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(CellResult)

// OnCell implements Observer.
func (f ObserverFunc) OnCell(c CellResult) { f(c) }

// Progress is one run-level progress event: which cell-replica just
// finished, how long it took on the wall clock, and how far the sweep has
// come. The engine measures Elapsed around the executor call, so the event
// is identical in shape whether the run executed in-process or on a remote
// worker; progress is observation only and never perturbs the
// deterministic aggregates.
type Progress struct {
	// CellIndex and CellName identify the grid cell of the finished run.
	CellIndex int
	CellName  string
	// Replica is the finished run's seed-replica index within its cell.
	Replica int
	// Elapsed is the run's wall time — the duration of the ExecuteCell
	// call, queueing and transport included for remote executors.
	Elapsed time.Duration
	// CellDone reports that this run was the cell's last outstanding
	// replica, completing its aggregate. CellElapsed is then the cell's
	// wall time: from its first replica starting to its last finishing.
	CellDone    bool
	CellElapsed time.Duration
	// RunsDone / RunsTotal and CellsDone / CellsTotal count completed
	// runs (cell-replicas) and fully aggregated cells, RunsDone
	// including this event's run.
	RunsDone, RunsTotal   int
	CellsDone, CellsTotal int
	// Replicas is the grid's replica count (runs per cell).
	Replicas int
}

// Options tunes the engine.
type Options struct {
	// Workers bounds the number of concurrent ExecuteCell calls; 0
	// selects GOMAXPROCS. Aggregates are byte-identical at any worker
	// count.
	Workers int
	// Observers receive per-cell completion events.
	Observers []Observer
	// Executor runs each cell-replica. Nil selects an in-process
	// LocalExecutor; sweep/fleet provides one that fans runs out to
	// HTTP workers instead.
	Executor Executor
	// RunObservers, when set, supplies dcsim Observers for each
	// individual run — the tap into the per-sample/per-period stream of
	// the underlying simulations. It is called from worker goroutines
	// and must be safe for concurrent use. It only applies to the
	// default local executor: a custom Executor owns its runs.
	RunObservers func(cell Cell, replica int) []dcsim.Observer
	// Progress, when set, receives one event per completed run on the
	// collector goroutine (one at a time, like Observers). It fires for
	// every executor — local, remote, or custom — because the engine
	// itself times the ExecuteCell calls.
	Progress func(Progress)
}

// executorOrDefault resolves the executor.
func (o Options) executorOrDefault() Executor {
	if o.Executor != nil {
		return o.Executor
	}
	return &LocalExecutor{RunObservers: o.RunObservers}
}

// workersOrDefault resolves the worker count.
func (o Options) workersOrDefault() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes the grid on a bounded worker pool and merges the runs into
// per-cell aggregates. Each (cell, replica) pair goes through the
// executor's ExecuteCell — in-process by default, over HTTP with
// sweep/remote — and the collector folds the returned per-replica stats.
// The returned Result is deterministic: cells appear in canonical grid
// order and replica statistics are folded in replica order, so the same
// grid marshals to the same bytes at any worker count, local or remote.
//
// Cancelling ctx stops the sweep between samples; Run then returns the
// cells whose every replica had already finished — a partial but
// well-defined grid — alongside the context's error. A failing run (as
// opposed to a cancelled one) aborts the sweep and returns its error,
// again keeping the cells already completed.
func Run(ctx context.Context, g Grid, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g = g.withDefaults()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	cells, err := g.Cells()
	if err != nil {
		return nil, err
	}

	type job struct {
		cell, replica int
	}
	type outcome struct {
		cell, replica int
		res           *dcsim.Result
		err           error
		start         time.Time
		elapsed       time.Duration
	}
	jobs := make([]job, 0, len(cells)*g.Replicas)
	for c := range cells {
		for r := 0; r < g.Replicas; r++ {
			jobs = append(jobs, job{cell: c, replica: r})
		}
	}

	// An internal cancel fans a run failure out to the other workers so
	// the sweep aborts promptly instead of finishing doomed work.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	jobCh := make(chan job)
	outCh := make(chan outcome)
	var wg sync.WaitGroup
	workers := opts.workersOrDefault()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	exec := opts.executorOrDefault()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				if runCtx.Err() != nil {
					outCh <- outcome{cell: j.cell, replica: j.replica, err: runCtx.Err()}
					continue
				}
				run := CellRun{Cell: cells[j.cell], Replica: j.replica, SeedStride: g.SeedStride}
				start := time.Now()
				res, err := exec.ExecuteCell(runCtx, run)
				outCh <- outcome{cell: j.cell, replica: j.replica, res: res, err: err,
					start: start, elapsed: time.Since(start)}
			}
		}()
	}
	go func() {
		defer close(jobCh)
		for _, j := range jobs {
			select {
			case jobCh <- j:
			case <-runCtx.Done():
				// Flush the rest as cancelled so the collector's
				// count stays exact.
				outCh <- outcome{cell: j.cell, replica: j.replica, err: runCtx.Err()}
			}
		}
	}()

	// The collector is the only goroutine touching the aggregation state,
	// so folding needs no locks and replica order is under our control.
	perCell := make([][]*dcsim.Result, len(cells))
	remaining := make([]int, len(cells))
	var cellStart, cellEnd []time.Time
	if opts.Progress != nil {
		cellStart = make([]time.Time, len(cells))
		cellEnd = make([]time.Time, len(cells))
	}
	for i := range perCell {
		perCell[i] = make([]*dcsim.Result, g.Replicas)
		remaining[i] = g.Replicas
	}
	var firstErr error
	runsDone := 0
	done := make([]CellResult, 0, len(cells))
	for n := 0; n < len(jobs); n++ {
		o := <-outCh
		if o.err != nil {
			if firstErr == nil && ctx.Err() == nil && !errors.Is(o.err, context.Canceled) {
				// A genuine run failure, not our own cancellation:
				// remember it and stop the rest of the sweep.
				firstErr = fmt.Errorf("sweep: cell %d (%s) replica %d: %w",
					o.cell, cells[o.cell].Name(), o.replica, o.err)
				cancel()
			}
			continue
		}
		perCell[o.cell][o.replica] = o.res
		remaining[o.cell]--
		runsDone++
		if opts.Progress != nil {
			if cellStart[o.cell].IsZero() || o.start.Before(cellStart[o.cell]) {
				cellStart[o.cell] = o.start
			}
			if end := o.start.Add(o.elapsed); end.After(cellEnd[o.cell]) {
				cellEnd[o.cell] = end
			}
		}
		if remaining[o.cell] == 0 {
			cr := aggregate(cells[o.cell], perCell[o.cell])
			done = append(done, cr)
			for _, obs := range opts.Observers {
				obs.OnCell(cr)
			}
			perCell[o.cell] = nil // free the raw runs
		}
		if opts.Progress != nil {
			p := Progress{
				CellIndex: o.cell,
				CellName:  cells[o.cell].Name(),
				Replica:   o.replica,
				Elapsed:   o.elapsed,
				RunsDone:  runsDone, RunsTotal: len(jobs),
				CellsDone: len(done), CellsTotal: len(cells),
				Replicas: g.Replicas,
			}
			if remaining[o.cell] == 0 {
				p.CellDone = true
				p.CellElapsed = cellEnd[o.cell].Sub(cellStart[o.cell])
			}
			opts.Progress(p)
		}
	}
	wg.Wait()
	close(outCh)

	res := &Result{Grid: g, TotalCells: len(cells), Cells: done}
	res.sortCells()
	res.Complete = len(done) == len(cells)
	if firstErr != nil {
		return res, firstErr
	}
	if err := ctx.Err(); err != nil && !res.Complete {
		return res, err
	}
	return res, nil
}
