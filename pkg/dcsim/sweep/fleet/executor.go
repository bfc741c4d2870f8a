package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/backoff"
	"repro/pkg/dcsim"
	"repro/pkg/dcsim/sweep"
	"repro/pkg/dcsim/sweep/remote"
)

// Executor implements sweep.Executor over a Registry: cell-replicas are
// dispatched to whatever members the fleet holds *right now*, each live
// non-draining member running at most WithInFlight runs at a time. A
// member joining mid-sweep starts absorbing queued runs on its next
// acquire; a member that dies — transport failure, or heartbeat expiry
// cancelling its context mid-dispatch — has its runs stolen back and
// re-executed on the survivors. Runs are deterministic and the sweep
// collector folds them in replica order, so the aggregate bytes never
// depend on fleet shape or churn timing.
//
// Use it as sweep.Options.Executor (over NewStaticRegistry for a fixed
// worker list):
//
//	reg := fleet.NewRegistry(fleet.Config{})
//	// ... serve fleet.NewHandler(reg) so workers can join ...
//	exec, _ := fleet.NewExecutor(reg)
//	res, err := sweep.Run(ctx, grid, sweep.Options{Workers: 16, Executor: exec})
type Executor struct {
	reg *Registry
	cfg config

	local       *sweep.LocalExecutor
	localTokens chan struct{} // one entry per free local slot; nil without WithLocalSlots
}

// config carries NewExecutor options.
type config struct {
	inFlight   int
	localSlots int
	client     *http.Client
	retry      backoff.Policy
}

// Option configures NewExecutor.
type Option func(*config)

// WithInFlight bounds concurrent dispatches per member (default 4).
func WithInFlight(n int) Option { return func(c *config) { c.inFlight = n } }

// WithLocalSlots adds n in-process execution slots alongside the fleet —
// the mixed local+fleet mode. Local slots never die: with the whole fleet
// gone the sweep degrades to purely local execution instead of failing
// with ErrNoWorkers.
func WithLocalSlots(n int) Option { return func(c *config) { c.localSlots = n } }

// WithHTTPClient replaces the default HTTP client (no timeout: runs are
// long and cancellation travels through the request context).
func WithHTTPClient(client *http.Client) Option { return func(c *config) { c.client = client } }

// WithRetry replaces the default retry policy (50ms base, 2s cap, seed 0)
// shaping the backoff between a failed dispatch and its re-execution, and
// capping the wait a busy worker's Retry-After asks for.
func WithRetry(p remote.RetryPolicy) Option { return func(c *config) { c.retry = backoff.Policy(p) } }

// NewExecutor builds a fleet executor over the registry. The fleet may be
// empty at construction: dispatch waits for capacity, and only an
// ExecuteCell that finds zero routable members (and no local slots) fails
// with ErrNoWorkers.
func NewExecutor(reg *Registry, opts ...Option) (*Executor, error) {
	if reg == nil {
		return nil, fmt.Errorf("fleet: nil registry")
	}
	cfg := config{inFlight: 4, client: &http.Client{}}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.inFlight < 1 {
		return nil, fmt.Errorf("fleet: in-flight bound must be positive, got %d", cfg.inFlight)
	}
	if cfg.localSlots < 0 {
		return nil, fmt.Errorf("fleet: local slots must be non-negative, got %d", cfg.localSlots)
	}
	e := &Executor{reg: reg, cfg: cfg}
	if cfg.localSlots > 0 {
		e.local = &sweep.LocalExecutor{}
		e.localTokens = make(chan struct{}, cfg.localSlots)
		for i := 0; i < cfg.localSlots; i++ {
			e.localTokens <- struct{}{}
		}
	}
	return e, nil
}

// ExecuteCell implements sweep.Executor: run one cell-replica somewhere in
// the current fleet, stealing it back and re-executing whenever the member
// holding it dies, drains, or declines. Deterministic worker-side failures
// (a typed *remote.Error that is not busy/draining) abort untried; an
// empty fleet with no local slots fails with an error wrapping
// ErrNoWorkers, and sweep.Run keeps the cells already completed.
func (e *Executor) ExecuteCell(ctx context.Context, run sweep.CellRun) (*dcsim.Result, error) {
	var lastErr error
	attempt := 0
	for {
		m, err := e.acquire(ctx)
		if err != nil {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (cell %d replica %d; last failure: %v)",
					err, run.Cell.Index, run.Replica, lastErr)
			}
			return nil, err
		}
		if m == nil {
			// A local slot: it cannot die, so any failure is final.
			res, err := e.local.ExecuteCell(ctx, run)
			e.localTokens <- struct{}{}
			return res, err
		}
		res, err := e.runOnMember(ctx, m, run)
		e.reg.releaseSlot(m)
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			// The sweep itself is over; nothing to steal.
			return nil, err
		}
		var te *remote.TransportError
		var we *remote.Error
		switch {
		case errors.As(err, &we) && we.Code == remote.CodeDraining:
			// Winding down, not lost: flag it (its heartbeat may not have
			// said so yet) and reroute at once. No steal — the run was
			// declined, never held.
			e.reg.MarkDraining(m.id)
			lastErr = fmt.Errorf("member %s (%s): draining", m.id, m.url)
		case errors.As(err, &we) && we.Code == remote.CodeBusy:
			// Loaded, not dead: wait out its Retry-After hint or our
			// backoff, whichever is longer — but never past the policy's
			// cap — and try again.
			d := e.cfg.retry.Hinted(we.RetryAfter, attempt, uint64(run.Cell.Index), uint64(run.Replica))
			if err := backoff.Sleep(ctx, d); err != nil {
				return nil, err
			}
			attempt++
		case errors.As(err, &we):
			// A typed worker-side failure is deterministic — retrying
			// elsewhere would fail identically — and the round trip
			// completing means the worker answered, however the member's
			// registry record fared meanwhile.
			return nil, err
		case m.ctx.Err() != nil:
			// The registry removed the member mid-dispatch — heartbeat
			// expiry, a failure reported by a sibling dispatch, or a
			// replacing re-registration — and the merged context aborted
			// the request. The run is stolen back; survivors and joiners
			// have intact capacity, so re-dispatch immediately.
			e.reg.noteStolen()
			lastErr = fmt.Errorf("member %s (%s) lost mid-run: %v", m.id, m.url, err)
		case errors.As(err, &te):
			// Transport-level failure: hard evidence the worker is gone.
			// Expire it (cancelling its context, so sibling dispatches
			// steal theirs too) and re-execute after the backoff.
			e.reg.ReportFailure(m.id, te.Err)
			e.reg.noteStolen()
			lastErr = fmt.Errorf("member %s (%s): %v", m.id, m.url, te.Err)
			if err := backoff.Sleep(ctx, e.cfg.retry.Delay(attempt, uint64(run.Cell.Index), uint64(run.Replica))); err != nil {
				return nil, err
			}
			attempt++
		default:
			// Not typed, not transport: a client-side failure (e.g. the
			// run failing to marshal) that no other member would fare
			// better with.
			return nil, err
		}
	}
}

// acquire claims an execution slot: a dispatch slot on some routable
// member (nil, nil with a member), or a local token (nil member). It
// blocks while the fleet has capacity that is merely busy, and fails with
// ErrNoWorkers only when no routable member exists and no local slots
// are configured.
func (e *Executor) acquire(ctx context.Context) (*member, error) {
	for {
		// Fetch the change channel before inspecting the fleet: a change
		// landing between the check and the wait closes this channel, so
		// the wakeup cannot be missed.
		ch := e.reg.changedChan()
		m, routable := e.reg.acquireSlot(e.cfg.inFlight)
		if m != nil {
			return m, nil
		}
		if e.localTokens == nil && routable == 0 {
			return nil, fmt.Errorf("%w (cell dispatch found an empty fleet)", ErrNoWorkers)
		}
		// Receiving from the nil localTokens (no local slots) blocks
		// forever, so one select serves both modes.
		select {
		case <-e.localTokens:
			return nil, nil
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// runOnMember executes the cell-replica on one member under a context
// that merges the sweep's with the member's: when the registry expires
// the member mid-dispatch (missed heartbeats, or a sibling's transport
// failure), the in-flight request aborts promptly — even against a
// blackholed worker whose TCP connection would otherwise hang — and the
// caller steals the run back.
func (e *Executor) runOnMember(ctx context.Context, m *member, run sweep.CellRun) (*dcsim.Result, error) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(m.ctx, cancel)
	defer stop()
	return remote.RunCell(rctx, e.cfg.client, m.url, run)
}
