package sweep

import (
	"context"

	"repro/pkg/dcsim"
)

// CellRun identifies one unit of sweep work: a grid cell, the replica index
// within it, and the grid's seed stride. It is a JSON value — the exact
// payload a remote executor ships to a worker — and it is self-contained:
// Scenario derives the concrete scenario without needing the Grid back.
type CellRun struct {
	// Cell is the grid cell being run (replica-0 scenario plus labels).
	Cell Cell `json:"cell"`
	// Replica is the seed-replica index within the cell.
	Replica int `json:"replica"`
	// SeedStride separates consecutive replica seeds (the grid's stride).
	SeedStride int64 `json:"seed_stride"`
}

// Scenario returns the concrete scenario of this cell-replica: the cell
// scenario with the workload seed advanced by Replica seed strides.
func (cr CellRun) Scenario() dcsim.Scenario {
	return cr.Cell.Replica(cr.Replica, cr.SeedStride)
}

// Executor runs one cell-replica and returns that run's per-replica stats.
// It is the sweep engine's distribution seam: Run's worker pool calls
// ExecuteCell once per (cell, replica) pair, and the collector folds the
// returned Results in replica order, so aggregates are byte-identical no
// matter where — or in how many processes — runs execute.
//
// Implementations must be safe for concurrent use: the engine calls
// ExecuteCell from every pool worker at once. An implementation reports
// cancellation by returning an error wrapping ctx.Err(); any other error
// aborts the sweep (the engine keeps the cells already completed).
//
// The engine times every ExecuteCell call on the wall clock and reports
// the duration through Options.Progress, so run- and cell-level progress
// events carry identical semantics for every executor — an implementation
// need not (and cannot) instrument itself.
type Executor interface {
	ExecuteCell(ctx context.Context, run CellRun) (*dcsim.Result, error)
}

// LocalExecutor runs cell-replicas in-process through dcsim.Run. It is the
// executor Run uses when Options.Executor is nil, and the building block
// mixed local+remote setups reuse for their in-process slots.
type LocalExecutor struct{}

// ExecuteCell implements Executor by running the scenario in-process.
func (e *LocalExecutor) ExecuteCell(ctx context.Context, run CellRun) (*dcsim.Result, error) {
	return dcsim.Run(ctx, run.Scenario())
}
