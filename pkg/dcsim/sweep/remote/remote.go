// Package remote is the distributed-sweep worker protocol over HTTP:
//
//   - Server is the worker side: an http.Handler exposing health,
//     capability listing (the worker's registry contents), and cell
//     execution with request-context cancellation. `dcsim worker -listen`
//     serves it.
//   - RunCell, FetchHealth, Health, FetchCapabilities, Preflight and
//     PreflightGrid are the client side of the same endpoints.
//
// Dispatching runs over workers is sweep/fleet's job: a static `-remote`
// worker list is a fleet.NewStaticRegistry, served by the same
// fleet.Executor as a self-registering fleet.
//
// The wire unit is sweep.CellRun out and dcsim.Result back, both plain
// JSON. Runs are deterministic and floats survive JSON round-trips bit
// exactly, so a sweep's aggregate Result is byte-identical whether cells
// execute in-process, on one worker, or scattered over a cluster — and a
// cell-replica retried after a worker death reproduces the lost run
// exactly.
//
// Failure semantics: a transport-level failure (connection refused, a
// worker dying mid-cell, 5xx) is a *TransportError — the worker is gone
// and the run belongs elsewhere. An application-level failure is a typed
// *Error: CodeBusy and CodeDraining are a healthy worker declining, and
// every other code is deterministic and never retried — a scenario naming
// a component the worker's registry lacks (CodeUnknownComponent) fails
// the same way everywhere.
package remote

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/backoff"
	"repro/pkg/dcsim"
)

// Code classifies a worker-side failure on the wire.
type Code string

const (
	// CodeBadRequest marks a request the worker could not decode.
	CodeBadRequest Code = "bad_request"
	// CodeUnknownComponent marks a scenario naming a component (policy,
	// governor, predictor, server model) the worker's registry does not
	// hold — typically an out-of-tree component the worker binary never
	// registered.
	CodeUnknownComponent Code = "unknown_component"
	// CodeBadScenario marks a scenario that fails validation for any
	// other reason (structure, params no component reads, ...).
	CodeBadScenario Code = "bad_scenario"
	// CodeRunFailed marks a simulation that started and failed.
	CodeRunFailed Code = "run_failed"
	// CodeCancelled marks a run stopped by request-context cancellation.
	CodeCancelled Code = "cancelled"
	// CodeBusy marks a worker at its in-flight capacity (Server.MaxInflight)
	// declining a run it would otherwise serve. The condition is transient:
	// clients honor the 503's Retry-After instead of dead-marking the
	// worker.
	CodeBusy Code = "busy"
	// CodeDraining marks a worker winding down: it finishes its in-flight
	// runs but accepts nothing new. Clients stop routing runs to it — and,
	// unlike a transport failure, do not treat the rejection as a death.
	CodeDraining Code = "draining"
)

// Error is the typed failure a worker reports and the client surfaces.
// Most application-level errors are deterministic, so the client does not
// retry them; use errors.As to classify one, e.g. to tell a registry
// mismatch (CodeUnknownComponent) from a failing simulation
// (CodeRunFailed). The two availability codes are the exception: CodeBusy
// is retried after RetryAfter, CodeDraining reroutes the run to another
// worker.
type Error struct {
	Code    Code   `json:"code"`
	Message string `json:"message"`
	// RetryAfter is the worker's Retry-After hint on a 503 (zero when the
	// response carried none). It travels in the header, not the JSON body.
	RetryAfter time.Duration `json:"-"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("remote: %s: %s", e.Code, e.Message)
}

// TransportError marks a transport-level failure talking to a worker:
// connection refused, a connection dropped mid-request, a 5xx, or a
// non-protocol response. Unlike a typed *Error it says nothing
// deterministic about the run, so callers treat the worker as gone and
// re-execute the cell-replica elsewhere.
type TransportError struct{ Err error }

// Error implements the error interface.
func (e *TransportError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying failure.
func (e *TransportError) Unwrap() error { return e.Err }

// RetryPolicy shapes the delay between a failed dispatch and its
// re-execution: bounded exponential backoff with deterministic jitter, a
// pure function of (Seed, cell, replica, attempt) — the policy the
// trace-obj fetcher retries with too.
type RetryPolicy struct {
	// Base is the delay scale of the first retry; attempt k scales it by
	// 2^k. 0 selects 50ms.
	Base time.Duration
	// Max caps the backoff however many attempts accumulate, and caps the
	// wait a busy worker's Retry-After can ask for. 0 selects 2s.
	Max time.Duration
	// Seed keys the jitter hash. The zero seed is valid (and the default):
	// determinism comes from the seed being fixed, not from its value.
	Seed int64
}

// Delay returns the backoff before retry number attempt (0-based) of the
// given cell-replica: half the capped exponential step plus a jittered
// half, the jitter hashed from (Seed, cell, replica, attempt).
func (p RetryPolicy) Delay(cell, replica, attempt int) time.Duration {
	return backoff.Policy(p).Delay(attempt, uint64(cell), uint64(replica))
}

// Capabilities is a worker's registry listing — the component names its
// process can resolve, including the workload kinds it can source traces
// from. Clients use it to check that a grid's out-of-tree components and
// workload backends are registered on every worker before fanning out.
type Capabilities struct {
	Policies   []string `json:"policies"`
	Governors  []string `json:"governors"`
	Predictors []string `json:"predictors"`
	Servers    []string `json:"servers"`
	Workloads  []string `json:"workloads"`
}

// Fingerprint is a stable hash of the registry listing: the same set of
// registered names yields the same string in every process, regardless of
// registration order. Workers advertise it in /healthz, so a client can
// spot registry drift across a fleet — two workers with different
// fingerprints cannot both serve every grid — from the health probe
// alone, without fetching and diffing full capability listings.
func (c Capabilities) Fingerprint() string {
	h := sha256.New()
	for _, group := range [][]string{c.Policies, c.Governors, c.Predictors, c.Servers, c.Workloads} {
		names := append([]string(nil), group...)
		sort.Strings(names)
		for _, n := range names {
			io.WriteString(h, n)
			h.Write([]byte{0})
		}
		// Group separator: a policy named x must not collide with a
		// governor named x.
		h.Write([]byte{1})
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// HealthInfo is the /healthz payload: liveness, the worker's current
// in-flight run count, and its capabilities fingerprint. Status "ok" is
// the original (and still primary) health contract — a worker winding
// down reports "draining" instead, so clients and fleet coordinators see
// the drain the moment it starts rather than when the process vanishes.
// The other fields let clients detect load and registry drift without a
// second round trip.
type HealthInfo struct {
	Status       string `json:"status"`
	Inflight     int64  `json:"inflight"`
	Capabilities string `json:"capabilities"`
}

// Health status values a worker reports.
const (
	// StatusOK is a live worker accepting runs.
	StatusOK = "ok"
	// StatusDraining is a worker finishing in-flight runs but accepting
	// nothing new (its drain window after SIGINT).
	StatusDraining = "draining"
)

// LocalCapabilities lists the component names registered in this process.
func LocalCapabilities() Capabilities {
	return Capabilities{
		Policies:   dcsim.Policies(),
		Governors:  dcsim.Governors(),
		Predictors: dcsim.Predictors(),
		Servers:    dcsim.Servers(),
		Workloads:  dcsim.WorkloadKinds(),
	}
}

// runResponse is the /run response envelope: exactly one of Result and
// Error is set.
type runResponse struct {
	Result *dcsim.Result `json:"result,omitempty"`
	Error  *Error        `json:"error,omitempty"`
}

// wire paths of the worker protocol.
const (
	healthPath       = "/healthz"
	capabilitiesPath = "/capabilities"
	runPath          = "/run"
)
