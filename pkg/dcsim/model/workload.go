package model

import (
	"context"
	"sort"
)

// Workload is the serializable description of a VM demand-trace source —
// the value a Scenario carries and a WorkloadSource consumes. It is the
// seam workload backends plug into: the built-in kinds synthesize traces
// locally, file-backed kinds (such as "trace-dir") load recorded traces,
// and an out-of-tree module can register any backend that reproduces a
// trace set deterministically from these fields.
type Workload struct {
	// Kind names the workload backend in the dcsim workload-kind
	// registry: "datacenter" (correlated service groups, the paper's
	// Setup 2 and the default), "uncorrelated" (same marginals with the
	// group structure shuffled away), "trace-dir" (a recorded CSV trace
	// directory), "trace-obj" (the same recording read from an HTTP(S)
	// object store), or any registered out-of-tree kind.
	Kind string `json:"kind"`
	// VMs is the number of demand traces (paper: 40). File-backed kinds
	// validate it against their manifest instead of synthesizing.
	VMs int `json:"vms"`
	// Groups is the number of correlated service groups (paper: 8).
	Groups int `json:"groups"`
	// Hours is the trace horizon (paper: 24).
	Hours int `json:"hours"`
	// Seed drives synthetic generators; equal seeds yield identical
	// traces. Seed 0 selects the default seed 1 (the zero value must
	// mean "unset" so sparse JSON configs behave like New()). Recorded
	// kinds ignore it: a recorded trace is the same at every seed.
	Seed int64 `json:"seed"`
	// Path points file-backed kinds at their data (for "trace-dir", the
	// directory holding manifest.json and the trace CSVs; for
	// "trace-obj", the http(s) bucket/prefix URL the recording is served
	// under). Synthetic kinds reject a non-empty Path as a configuration
	// error.
	Path string `json:"path,omitempty"`
	// Options carries kind-scoped backend knobs as strings — settings
	// that shape HOW a backend produces its traces (cache directory,
	// cache budget, fetch timeout), never WHICH traces it produces: two
	// workloads differing only in Options must yield sample-identical
	// datasets, or sweeps mixing them would break determinism.
	//
	// The contract mirrors Scenario.Params: a key the selected backend
	// does not read is a configuration error the backend's Check must
	// reject (see UnknownOptions), so a typo fails loudly instead of
	// silently running the default. Backends without knobs reject every
	// key. Grids sweep options through "workload.opt:<key>" axes.
	Options map[string]string `json:"options,omitempty"`
}

// Option returns the named backend option, or "" when unset. Backends
// distinguishing "unset" from "empty" can consult the map directly.
func (w Workload) Option(key string) string { return w.Options[key] }

// SetOption sets one backend option, copy-on-write: the options map is
// never mutated in place, so workloads derived from a shared base (as
// sweep grid cells are) cannot alias each other's options.
func (w *Workload) SetOption(key, value string) {
	opts := make(map[string]string, len(w.Options)+1)
	for k, v := range w.Options {
		opts[k] = v
	}
	opts[key] = value
	w.Options = opts
}

// UnknownOptions returns, sorted, the option keys the workload carries
// beyond the given known set — the keys a backend's Check must reject to
// honour the unread-key contract (see Options).
func (w Workload) UnknownOptions(known ...string) []string {
	var bad []string
	for key := range w.Options {
		ok := false
		for _, k := range known {
			if key == k {
				ok = true
				break
			}
		}
		if !ok {
			bad = append(bad, key)
		}
	}
	sort.Strings(bad)
	return bad
}

// FetchStats is a process's cumulative recorded-trace transfer activity:
// how many objects its object-store workload backends fetched over the
// network, how many were served from the local chunk cache instead, how
// many cache files were evicted to stay under budget, and how many
// transient fetch failures were retried. The façade exposes a snapshot
// (dcsim.WorkloadFetchStats), and the service's OpenMetrics endpoint
// exports the four counters.
type FetchStats struct {
	ChunkFetches   uint64
	CacheHits      uint64
	CacheEvictions uint64
	FetchRetries   uint64
}

// WorkloadSource is one workload backend: it turns a Workload description
// into the demand traces it names. Implementations must be deterministic —
// the same Workload always yields sample-identical traces — because sweep
// replicas, remote retries, and cross-machine aggregation all rely on
// reproducing a run exactly.
//
// Register implementations under a kind name through the dcsim façade
// (RegisterWorkload); scenario validation, sweep preflight, and the remote
// worker's capability listing all consult that registry, so an unknown
// kind fails before any traces are produced.
type WorkloadSource interface {
	// Check validates the description without producing traces — the
	// fail-fast hook scenario validation and sweep preflight call. A
	// file-backed source validates its manifest (names, interval,
	// horizon) against the workload here. Check must have no side
	// effects: preflight runs it once per sweep cell.
	Check(w Workload) error
	// Load returns the traces the description names, in canonical order,
	// with one name per fine series. It must not assume Check ran first
	// (the façade loads without a separate Check, and file-backed data can
	// change between the two calls), so it validates whatever it depends
	// on. When ctx is cancelled it stops with ctx's error: between VMs,
	// between chunks, and inside any fetches.
	Load(ctx context.Context, w Workload) (*Dataset, error)
}

// SeedInvariantSource is an optional WorkloadSource capability: a source
// whose traces do not depend on Workload.Seed — recorded traces are the
// same at every seed — reports true. Sweep validation uses it to reject
// seed replicas over such a source: N identical replicas would report a
// zero stddev and a zero-width confidence interval, which is exactly the
// silently-deflated-statistics failure the replica machinery must never
// produce. Sources without the method are assumed seed-sensitive.
type SeedInvariantSource interface {
	SeedInvariant() bool
}
