// Package exp contains one entry point per table and figure in the paper's
// evaluation, plus the ablation studies from DESIGN.md. Each entry point
// returns a typed result whose String() renders the artifact as text, so
// the cmd/experiments binary and the top-level benchmarks can regenerate
// everything deterministically.
//
// Every entry point takes the serializable contract type model.RunOptions,
// so the pkg/dcsim/experiments registry can hand the same options to
// artifacts registered by other modules.
package exp

import (
	"context"

	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/websearch"
	"repro/pkg/dcsim"
	"repro/pkg/dcsim/model"
	"repro/pkg/dcsim/sweep"
)

// Full reproduces the paper's published setups: 24 h of 40 VMs over 20
// servers for Setup 2, 20-minute web-search runs for Setup 1.
func Full() model.RunOptions {
	return model.RunOptions{
		WebSearchDuration: 1200,
		VMs:               40,
		Groups:            8,
		Hours:             24,
		Seed:              1,
		PeriodSamples:     720, // 1 h of 5-s samples
		MaxServers:        20,
		CacheWarmKI:       20000,
		CacheMeasKI:       50000,
		Fig3Groups:        400,
	}
}

// Quick shrinks every horizon for fast tests.
func Quick() model.RunOptions {
	o := Full()
	o.WebSearchDuration = 240
	o.Hours = 6
	o.VMs = 16
	o.Groups = 4
	o.CacheWarmKI = 2000
	o.CacheMeasKI = 5000
	o.Fig3Groups = 60
	return o
}

// setup2Spec and setup2Power pin the Setup-2 hardware.
func setup2Spec() model.ServerSpec  { return server.XeonE5410() }
func setup2Power() model.PowerModel { return power.XeonE5410() }
func wsSpec() model.ServerSpec      { return server.OpteronR815() }

// workload returns the Setup-2 workload with unset knobs resolved to the
// façade defaults — the single source of the zero-means-default mapping,
// so the traces, the per-artifact rngs, and the sweep axes all agree on
// what a zero-valued RunOptions field selects.
func workload(o model.RunOptions) dcsim.Workload {
	return baseScenario(o).Normalized().Workload
}

// datacenterVMs generates the Setup-2 traces once per call site, through
// the same façade backend every scenario run uses. The workload kind is
// fixed, so generation cannot fail.
func datacenterVMs(o model.RunOptions) []*model.VM {
	ds, err := dcsim.GenerateTraces(workload(o))
	if err != nil {
		panic("exp: " + err.Error())
	}
	return model.VMsFromSeries(ds.Names, ds.Fine)
}

// baseScenario maps the Setup-2 options onto a façade scenario; zero-valued
// knobs resolve to the façade defaults at Run (or Normalized) time, the
// same resolution datacenterVMs applies when synthesizing traces.
func baseScenario(o model.RunOptions) dcsim.Scenario {
	return dcsim.Scenario{
		Workload: dcsim.Workload{
			Kind:   "datacenter",
			VMs:    o.VMs,
			Groups: o.Groups,
			Hours:  o.Hours,
			Seed:   o.Seed,
		},
		MaxServers:    o.MaxServers,
		PeriodSamples: o.PeriodSamples,
		Pctl:          1,
	}
}

// runGrid executes an ablation grid on the sweep engine at the configured
// parallelism. Aggregates are deterministic regardless of Workers, so the
// serial (Workers <= 1) and fanned-out ablations publish identical rows.
func runGrid(o model.RunOptions, g sweep.Grid) (*sweep.Result, error) {
	workers := o.Workers
	if workers < 1 {
		workers = 1
	}
	return sweep.Run(context.Background(), g, sweep.Options{Workers: workers})
}

// baselineBFD runs the shared BFD reference the ablation rows normalize
// against, on the same synthesized traces the grid cells use.
func baselineBFD(o model.RunOptions) (*model.Result, error) {
	sc := baseScenario(o)
	sc.Policy = "bfd"
	return dcsim.Run(context.Background(), sc)
}

// runPolicy executes one Setup-2 simulation. kind selects the policy:
// "bfd", "pcp", or "corr"; rescaleEvery > 0 enables dynamic v/f scaling.
// Assembly goes through the pkg/dcsim façade: the policy kind maps to
// registry names, and the façade wires the shared cost matrix when the
// correlation-aware pair is selected.
func runPolicy(o model.RunOptions, vms []*model.VM, kind string, rescaleEvery int) (*model.Result, error) {
	governor := "worst-case"
	if kind == "corr" {
		governor = "eqn4"
	}
	sc := dcsim.New(
		dcsim.WithPolicy(kind),
		dcsim.WithGovernor(governor),
		dcsim.WithMaxServers(o.MaxServers),
		dcsim.WithPeriodSamples(o.PeriodSamples),
		dcsim.WithRescaleEvery(rescaleEvery),
	)
	return dcsim.RunVMs(context.Background(), vms, sc)
}

// wsConfig returns the Setup-1 configuration at the chosen horizon.
func wsConfig(o model.RunOptions) websearch.Config {
	cfg := websearch.DefaultConfig()
	cfg.Duration = o.WebSearchDuration
	return cfg
}
