package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/pkg/dcsim"
)

// setupReps is how many times a run sets its workload up from scratch;
// setup_s reports their median.
const setupReps = 3

// options select what one benchmark process measures.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	workdir  string // scratch space; the recordings made there are removed on return
}

// env describes where a record was measured.
type env struct {
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func currentEnv() env {
	return env{runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0)}
}

// record is what one benchmark process measured: every sample of every
// metric, so that medians and quartiles can be recomputed when records from
// several processes are merged.
type record struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Trace     bool                 `json:"trace"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`
	Digests   []string             `json:"digests"`
	Samples   map[string][]float64 `json:"samples"`
}

func (r *record) add(name string, v float64) { r.Samples[name] = append(r.Samples[name], v) }

// fail counts one failed run; the first few reasons are kept.
func (r *record) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// iteration is what one pass over a workload's runs produced.
type iteration struct {
	wall    time.Duration // Σ run wall time
	alloc   uint64        // heap bytes allocated by the runs
	digests []string
	energyJ float64
	viol    float64 // Σ MeanViolationPct
	active  float64 // Σ MeanActive
}

// runFunc runs one scenario: dcsim.Run, or its traced composition.
type runFunc func(context.Context, dcsim.Scenario) (*dcsim.Result, error)

func untraced(ctx context.Context, sc dcsim.Scenario) (*dcsim.Result, error) {
	return dcsim.Run(ctx, sc)
}

// iterate runs every scenario once, back to back, and checks each result
// against the conservation laws and, when want is set, the digest the same
// run produced before.
func (r *record) iterate(ctx context.Context, scs []dcsim.Scenario, want []string, run runFunc) iteration {
	it := iteration{digests: make([]string, len(scs))}
	for i, sc := range scs {
		a0 := heapAllocs()
		start := time.Now()
		res, err := run(ctx, sc)
		it.wall += time.Since(start)
		it.alloc += heapAllocs() - a0
		r.Attempted++
		if err == nil {
			err = checkResult(res, sc)
		}
		if err != nil {
			r.fail("run %d (%s/%s): %v", i, sc.Policy, sc.Governor, err)
			continue
		}
		it.digests[i] = digest(res)
		if want != nil && it.digests[i] != want[i] {
			r.fail("run %d (%s/%s): digest %s, first run gave %s", i, sc.Policy, sc.Governor, it.digests[i], want[i])
		}
		it.energyJ += res.EnergyJ
		it.viol += res.MeanViolationPct
		it.active += res.MeanActive
	}
	return it
}

// runWorkload sets a workload up, then measures it for o.seconds. Untraced,
// every iteration is a closed loop of dcsim.Run calls. Traced, iterations
// alternate between dcsim.Run and the traced composition, so the tracing
// overhead is measured under the same conditions.
func runWorkload(ctx context.Context, o options) (*record, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.quick {
		w = w.quickSize()
	}
	rec := &record{Workload: w.name, Seed: o.seed, Trace: o.trace, Samples: map[string][]float64{}}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up: make the inputs, check the scenarios, and run one warm-up
	// iteration, from scratch each time. The first warm-up's digests are
	// the reference every later run must reproduce.
	var scs []dcsim.Scenario
	var want []string
	var kernels, setupWall []float64
	for i := 0; i < setupReps; i++ {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		kernels = append(kernels, kernelSeconds())
		start := time.Now()
		if scs, err = w.scenarios(o.seed, dir); err != nil {
			return nil, err
		}
		it := rec.iterate(ctx, scs, want, untraced)
		setupWall = append(setupWall, time.Since(start).Seconds())
		if want == nil {
			want = it.digests
		}
	}
	rec.Digests = want

	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	if o.trace {
		var plain, traced []float64
		for n := 0; n < 2 || time.Now().Before(deadline); n++ {
			if n%2 == 1 {
				traced = append(traced, rec.tracedIteration(ctx, scs, want))
			} else {
				plain = append(plain, rec.iterate(ctx, scs, want, untraced).wall.Seconds())
			}
		}
		rec.add("trace.overhead", median(traced)/median(plain)-1)
		return rec, nil
	}

	demand, err := meanDemand(ctx, scs[0].Workload)
	if err != nil {
		return nil, err
	}
	for n := 0; n < 1 || time.Now().Before(deadline); n++ {
		kernels = append(kernels, kernelSeconds())
		it := rec.iterate(ctx, scs, want, untraced)
		runs := float64(len(scs))
		rec.add("wall_s", it.wall.Seconds())
		rec.add("alloc_mb", float64(it.alloc)/(1<<20))
		rec.add("energy_per_core_h", it.energyJ/1e3/runs/(demand*float64(w.hours)))
		rec.add("servers_per_core", it.active/runs/demand)
		rec.add("energy_kj", it.energyJ/1e3)
		rec.add("violation_pct", it.viol/runs)
		rec.add("active_servers", it.active/runs)
	}
	rec.add("peak_rss_mb", peakRSSMiB())
	scale := refKernelSeconds / median(kernels)
	for _, s := range setupWall {
		rec.add("setup_s", s*scale)
	}
	for _, s := range rec.Samples["wall_s"] {
		rec.add("run_s", s*scale)
	}
	rec.Samples["kernel_s"] = kernels
	return rec, nil
}

// tracedIteration runs the workload once through the traced composition
// and records each layer's self time, call count, and the ratios derived
// from them. It returns the traced wall time.
func (r *record) tracedIteration(ctx context.Context, scs []dcsim.Scenario, want []string) float64 {
	t := &tracer{}
	gc0, cycles0 := gcCPU()
	r.iterate(ctx, scs, want, func(ctx context.Context, sc dcsim.Scenario) (*dcsim.Result, error) {
		return runTraced(ctx, sc, t)
	})
	gc1, cycles1 := gcCPU()

	total := time.Duration(0)
	for s := span(0); s < nSpans; s++ {
		r.add(spanNames[s]+".self_s", t.self[s].Seconds())
		r.add(spanNames[s]+".calls", float64(t.calls[s]))
		total += t.self[s]
	}
	r.add("runtime.gc.self_s", gc1-gc0)
	r.add("runtime.gc.calls", float64(cycles1-cycles0))
	r.add("ingest.ns_per_sample", perUnit(t.self[spIngest], 1, t.vmSamples))
	r.add("matrix.add.ns_per_pair", perUnit(t.self[spMatrixAdd], 1, t.pairs))
	r.add("place.ms_per_call", perUnit(t.self[spPlace], 1e-6, t.calls[spPlace]))
	r.add("governor.rescale.ns_per_call", perUnit(t.self[spGovRescale], 1, t.calls[spGovRescale]))
	r.add("sim.vm_samples_per_s", float64(t.simSamples)/t.simWall.Seconds())
	r.add("trace.coverage", total.Seconds()/t.wall.Seconds())
	return t.wall.Seconds()
}

// perUnit is d in nanoseconds times scale per unit of work, 0 without work.
func perUnit(d time.Duration, scale float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) * scale / float64(n)
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// gcCPU returns the runtime's estimate of GC CPU seconds and the number of
// completed GC cycles.
func gcCPU() (float64, uint64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Uint64()
}

// peakRSSMiB is the process's maximum resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median of a sample, which must be non-empty.
func median(xs []float64) float64 {
	q := quartiles(xs)
	return q[1]
}

// quartiles returns the first quartile, median and third quartile with
// the same interpolation as Python's statistics.quantiles(n=4): positions
// (n+1)p, clamped to the sample.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	for i, p := range []float64{0.25, 0.5, 0.75} {
		pos := float64(len(s)+1)*p - 1
		switch {
		case pos <= 0:
			q[i] = s[0]
		case pos >= float64(len(s)-1):
			q[i] = s[len(s)-1]
		default:
			lo := int(pos)
			q[i] = s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
		}
	}
	return q
}
