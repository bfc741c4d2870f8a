package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/pkg/dcsim"
)

// cell is one run of an iteration: a policy, its governor, and the rescale
// interval (0 = static levels within a period).
type cell struct {
	policy, governor string
	rescale          int
}

// workload is one benchmark input. An iteration runs every cell back to
// back on the same population, each as its own dcsim.Run.
type workload struct {
	name                        string
	vms, groups, hours, servers int
	cells                       []cell
	// recorded runs the cells from a trace-dir recording of the synthetic
	// population, written at set-up, instead of generating it per run.
	recorded bool
}

// tableII is the paper's Table II comparison: each policy with its own
// governor, static and with per-minute rescaling.
var tableII = []cell{
	{"corr-aware", "eqn4", 0}, {"bfd", "worst-case", 0}, {"pcp", "worst-case", 0},
	{"corr-aware", "eqn4", 12}, {"bfd", "worst-case", 12}, {"pcp", "worst-case", 12},
}

// workloads are sized so that each iteration takes about a second on two
// CPUs; the reasons each one exists are recorded in BENCHMARK.json.
var workloads = []workload{
	{name: "tableii-40", vms: 40, groups: 8, hours: 24, servers: 20, cells: tableII},
	{name: "corr-400-dyn", vms: 400, groups: 40, hours: 6, servers: 200,
		cells: []cell{{"corr-aware", "eqn4", 12}}},
	{name: "bfd-2k-dyn", vms: 2000, groups: 200, hours: 6, servers: 1000,
		cells: []cell{{"bfd", "worst-case", 12}}},
	{name: "pcp-1k-tracedir", vms: 1000, groups: 100, hours: 6, servers: 500,
		cells: []cell{{"pcp", "worst-case", 0}}, recorded: true},
}

// quickSize shrinks a workload to a toy population for smoke tests, keeping
// its cells and its workload kind.
func (w workload) quickSize() workload {
	w.vms, w.groups, w.hours, w.servers = 12, 3, 2, 6
	return w
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// samplesPerHour is the generator's fine resolution, one sample every 5 s.
// Every scenario places hourly, the paper's tperiod.
const samplesPerHour = 720

// vmsPerChunk is the VM columns per trace-dir chunk file, tracegen's default.
const vmsPerChunk = 16

// meanDemand is the population's total CPU demand in cores, averaged over
// the horizon: the work every policy has to serve, whatever the seed drew.
func meanDemand(ctx context.Context, w dcsim.Workload) (float64, error) {
	r, err := dcsim.OpenTraces(ctx, w)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	sum, samples := 0.0, 0
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		samples = rec.Fine.Len()
		for k := 0; k < samples; k++ {
			sum += rec.Fine.At(k)
		}
	}
	if sum <= 0 {
		return 0, fmt.Errorf("workload %s has no demand", w.Kind)
	}
	return sum / float64(samples), nil
}

// scenarios builds the workload's runs for one seed. A recorded workload
// first writes its population under dir; the caller removes dir.
func (w workload) scenarios(seed int64, dir string) ([]dcsim.Scenario, error) {
	wl := dcsim.Workload{Kind: "datacenter", VMs: w.vms, Groups: w.groups, Hours: w.hours, Seed: seed}
	if w.recorded {
		ds, err := dcsim.GenerateTraces(wl)
		if err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := dcsim.WriteTraceDir(dir, ds, vmsPerChunk); err != nil {
			return nil, err
		}
		wl = dcsim.Workload{Kind: "trace-dir", Path: dir, VMs: w.vms, Groups: w.groups, Hours: w.hours}
	}
	scs := make([]dcsim.Scenario, len(w.cells))
	for i, c := range w.cells {
		scs[i] = dcsim.New(
			dcsim.WithWorkload(wl),
			dcsim.WithPolicy(c.policy),
			dcsim.WithGovernor(c.governor),
			dcsim.WithRescaleEvery(c.rescale),
			dcsim.WithMaxServers(w.servers),
			dcsim.WithPeriodSamples(samplesPerHour),
		).Normalized()
		if err := dcsim.CheckScenario(scs[i]); err != nil {
			return nil, err
		}
	}
	return scs, nil
}
