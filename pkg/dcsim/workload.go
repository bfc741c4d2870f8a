package dcsim

import (
	"context"
	"fmt"

	"repro/internal/objstore"
	"repro/internal/tracedir"
	"repro/pkg/dcsim/model"
)

// WorkloadSource is the workload-backend contract model.WorkloadSource,
// re-exported so registrants can name it through the façade. Implement it
// against model types alone and register it with RegisterWorkload to add a
// workload kind — exactly how the built-in "datacenter", "uncorrelated",
// "trace-dir" and "trace-obj" kinds are wired in.
type WorkloadSource = model.WorkloadSource

// RegisterWorkload adds a workload backend under a unique kind name; it
// panics on empty or duplicate names (registration is init-time
// configuration). The kind becomes selectable as Workload.Kind in
// scenarios, grids, and the -workload flags, and remote sweep workers
// advertise it through their capability listing.
func RegisterWorkload(kind string, src WorkloadSource) { workloadReg.Register(kind, src) }

// WorkloadKinds lists the registered workload kind names, sorted.
func WorkloadKinds() []string { return workloadReg.Names() }

// lookupWorkload returns the registered workload backend for a kind; the
// empty kind selects the default "datacenter".
func lookupWorkload(kind string) (WorkloadSource, error) {
	return workloadReg.Lookup(kindOrDefault(kind))
}

// kindOrDefault maps the unset kind to the default generator.
func kindOrDefault(kind string) string {
	if kind == "" {
		return "datacenter"
	}
	return kind
}

// SeedInvariantWorkload reports whether the registered kind's traces
// ignore Workload.Seed (the model.SeedInvariantSource capability —
// recorded sources like "trace-dir"). Unknown kinds report false; the
// registry lookup that rejects them happens elsewhere.
func SeedInvariantWorkload(kind string) bool {
	src, err := lookupWorkload(kind)
	if err != nil {
		return false
	}
	si, ok := src.(model.SeedInvariantSource)
	return ok && si.SeedInvariant()
}

// CheckWorkload validates a workload description the way GenerateTraces
// would — kind lookup plus the backend's own fail-fast check (for
// file-backed kinds, the manifest against the scenario) — without
// producing any traces. It is the preflight-only path: loading does not
// call it, because a backend's Load validates on its own.
func CheckWorkload(w Workload) error {
	src, err := lookupWorkload(w.Kind)
	if err != nil {
		return err
	}
	// Normalize before the backend check so its errors name the kind
	// that actually handled the description, not "".
	w.Kind = kindOrDefault(w.Kind)
	return src.Check(w)
}

// GenerateTraces produces the demand traces a Workload describes through
// its registered backend: synthesized deterministically in the workload's
// seed for the built-in generators, read from the recording for recorded
// kinds. It is the Dataset Run simulates.
func GenerateTraces(w Workload) (*Dataset, error) {
	return loadTraces(context.Background(), w)
}

// OpenTraces returns a reader over the Dataset GenerateTraces would load:
// the same traces, one VM record at a time, with every load error
// returned here rather than from Next. Cancelling ctx stops the load with
// the context's error.
func OpenTraces(ctx context.Context, w Workload) (model.DatasetReader, error) {
	ds, err := loadTraces(ctx, w)
	if err != nil {
		return nil, err
	}
	return model.DatasetReaderOf(ds), nil
}

// loadTraces is the one workload ingest path behind Run, GenerateTraces and
// OpenTraces: registry lookup, then the backend's Load, which validates
// the description itself — so a source is loaded once and a recording's
// manifest read once — then the checks every dataset must pass before a
// run indexes it. A nil ctx never cancels.
func loadTraces(ctx context.Context, w Workload) (*Dataset, error) {
	src, err := lookupWorkload(w.Kind)
	if err != nil {
		return nil, err
	}
	w.Kind = kindOrDefault(w.Kind)
	if ctx == nil {
		ctx = context.Background()
	}
	ds, err := src.Load(ctx, w)
	if err != nil {
		return nil, err
	}
	if ds == nil || len(ds.Fine) == 0 {
		return nil, fmt.Errorf("dcsim: workload kind %q produced no traces", w.Kind)
	}
	if len(ds.Names) != len(ds.Fine) {
		return nil, fmt.Errorf("dcsim: workload kind %q produced %d names for %d traces", w.Kind, len(ds.Names), len(ds.Fine))
	}
	for i, s := range ds.Fine {
		if s == nil {
			return nil, fmt.Errorf("dcsim: workload kind %q produced no series for trace %q", w.Kind, ds.Names[i])
		}
	}
	return ds, nil
}

// WorkloadFetchStats snapshots the process's cumulative object-store
// fetch/cache counters: chunk fetches that went to the store, local cache
// hits, cache evictions, and transient-fault retries. The counters are
// process-global across every "trace-obj" workload the process has read —
// the OpenMetrics exporter and `dcsim sweep -v` surface exactly this.
func WorkloadFetchStats() model.FetchStats { return objstore.Stats() }

// WriteTraceDir records a dataset's fine traces as a "trace-dir" workload:
// chunked CSVs of at most vmsPerFile VM columns (0 = one file) plus a
// manifest.json naming every VM, the interval, and the horizon. A scenario
// with Workload{Kind: "trace-dir", Path: dir} then loads the recording
// back — sample-identical, so a recorded sweep reproduces the synthetic
// run that produced it bit for bit. cmd/tracegen -dir uses exactly this.
func WriteTraceDir(dir string, ds *Dataset, vmsPerFile int) error {
	return tracedir.Write(dir, ds, vmsPerFile)
}
