// Package fleet dispatches sweep execution over HTTP workers: a
// coordinator-side Registry tracks a membership of workers that announce
// themselves and heartbeat, and a fleet-aware Executor dispatches
// cell-replicas over the *current* member set — admitting workers that
// join mid-sweep and stealing back the unacknowledged runs of workers
// that die or drain. A fixed worker list (`-remote host1,host2`) is the
// degenerate fleet: NewStaticRegistry seeds the members, with no
// heartbeats, and the same Executor serves it.
//
// The pieces, coordinator side:
//
//   - Registry is the membership: workers register (URL, capabilities
//     fingerprint, heartbeat interval), beat on their interval, and expire
//     after Config.MissThreshold missed beats. Expiry cancels the member's
//     context, so runs in flight on a vanished worker abort promptly and
//     re-execute elsewhere instead of hanging on a dead TCP connection.
//   - Executor implements sweep.Executor over the Registry: each live,
//     non-draining member runs at most WithInFlight cell-replicas at a
//     time; a joining member starts absorbing queued runs immediately; a
//     dying one has its runs stolen back and re-executed on survivors
//     (counted in Stats.RunsStolen). WithLocalSlots adds in-process slots
//     that never die — the mixed local+fleet mode.
//   - Handler exposes the membership protocol over HTTP: POST
//     /fleet/register, heartbeat PUTs to /fleet/members/{id}, and a GET
//     /fleet listing. `dcsim sweep -fleet` and `dcsim serve -fleet` mount
//     it.
//
// And worker side:
//
//   - Agent is the announce-and-heartbeat loop `dcsim worker -register`
//     runs: register (retrying until the coordinator is reachable), beat
//     on the interval, re-register when the coordinator forgot us, report
//     "draining" during the drain window, deregister on the way out.
//
// The determinism contract is non-negotiable: every (cell, replica) run completes exactly once from
// the collector's point of view, runs are deterministic, and the collector
// folds them in replica order — so a sweep's aggregate bytes are identical
// to LocalExecutor's regardless of fleet shape or churn timing. Workers
// joining, dying mid-cell, or draining move *where* runs execute, never
// what they produce.
//
// Failure semantics: transport failures and heartbeat expiry remove the
// member and steal its runs; a 503 draining reroutes without counting a
// death; a 503 busy waits out the Retry-After; typed deterministic errors
// abort the sweep untried. When no routable member is left (and no local
// slots exist), ExecuteCell fails with ErrNoWorkers and sweep.Run keeps
// the cells already completed.
package fleet

import (
	"errors"
	"time"
)

// ErrNoWorkers is returned (wrapped) by Executor.ExecuteCell when the
// fleet has no routable member left — every worker expired, died, or
// drained away — and the executor has no local slots to degrade to.
// sweep.Run surfaces it while preserving the cells already completed.
var ErrNoWorkers = errors.New("fleet: no live workers")

// ErrUnknownMember marks a heartbeat or deregistration for a member ID
// the registry does not hold — typically one expired for missed beats.
// The HTTP layer maps it to 404; an Agent answers by re-registering.
var ErrUnknownMember = errors.New("fleet: unknown member")

// ErrClosed rejects operations on a closed Registry.
var ErrClosed = errors.New("fleet: registry closed")

// Member states a registry reports.
const (
	// StateAlive is a member in good standing, routable for new runs.
	StateAlive = "alive"
	// StateDraining is a member finishing in-flight runs but receiving
	// nothing new.
	StateDraining = "draining"
)

// RegisterRequest is the POST /fleet/register body: the worker's
// externally reachable base URL, its capabilities fingerprint (see
// remote.Capabilities.Fingerprint), the heartbeat interval it intends to
// keep, and its initial status ("" means alive).
type RegisterRequest struct {
	URL          string `json:"url"`
	Capabilities string `json:"capabilities,omitempty"`
	IntervalMS   int64  `json:"heartbeat_interval_ms,omitempty"`
	Status       string `json:"status,omitempty"`
}

// RegisterResponse acknowledges a registration: the member ID heartbeats
// must name, the interval the registry granted (its default when the
// request named none), and the number of beats a member may miss before
// it expires.
type RegisterResponse struct {
	ID            string `json:"id"`
	IntervalMS    int64  `json:"heartbeat_interval_ms"`
	MissThreshold int    `json:"miss_threshold"`
}

// HeartbeatRequest is the PUT /fleet/members/{id} body: the worker's
// current status ("" keeps the previous one) and in-flight run count.
type HeartbeatRequest struct {
	Status   string `json:"status,omitempty"`
	Inflight int64  `json:"inflight,omitempty"`
}

// MemberInfo is one member's public snapshot, as GET /fleet lists them.
type MemberInfo struct {
	ID           string    `json:"id"`
	URL          string    `json:"url"`
	State        string    `json:"state"`
	Capabilities string    `json:"capabilities,omitempty"`
	IntervalMS   int64     `json:"heartbeat_interval_ms"`
	Joined       time.Time `json:"joined"`
	LastBeat     time.Time `json:"last_heartbeat"`
	MissedBeats  int       `json:"missed_beats,omitempty"`
	// Inflight is the worker's self-reported in-flight run count from its
	// last heartbeat; Dispatched is the coordinator-side count of runs
	// currently dispatched to it by the fleet executor.
	Inflight   int64 `json:"inflight,omitempty"`
	Dispatched int   `json:"dispatched,omitempty"`
}

// Stats is the registry's instrumentation snapshot — the source of the
// dcsim_fleet_* metric families the service exporter renders.
type Stats struct {
	// Alive and Draining count current members by state.
	Alive    int `json:"alive"`
	Draining int `json:"draining"`
	// Registrations counts accepted registrations (re-registrations
	// included); Expirations counts members expired for missed beats or
	// removed after a transport failure.
	Registrations uint64 `json:"registrations"`
	Expirations   uint64 `json:"expirations"`
	// HeartbeatMisses counts individual overdue beats (a member missing 3
	// beats before expiring contributes 3).
	HeartbeatMisses uint64 `json:"heartbeat_misses"`
	// RunsStolen counts dispatched runs taken back from a dead or
	// draining worker and re-executed elsewhere.
	RunsStolen uint64 `json:"runs_stolen"`
}

// FleetStatus is the GET /fleet response: the members and the counters.
type FleetStatus struct {
	Workers []MemberInfo `json:"workers"`
	Stats   Stats        `json:"stats"`
}
