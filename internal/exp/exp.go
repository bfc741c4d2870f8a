// Package exp contains one entry point per table and figure in the paper's
// evaluation, plus the ablation studies from DESIGN.md. Each entry point
// returns a typed result whose String() renders the artifact as text, so
// the cmd/experiments binary and the top-level benchmarks can regenerate
// everything deterministically.
//
// Every entry point takes the serializable contract type model.RunOptions,
// so the pkg/dcsim/experiments registry can hand the same options to
// artifacts registered by other modules.
//
// The Setup-2 artifacts run their scenarios through the pkg/dcsim façade:
// Table II, the extended table and the ablations as sweep grids at
// RunOptions.Workers, normalized against a BFD run on the same traces,
// and Fig. 6 as two dcsim.Run calls, since it reads per-server residency
// a sweep cell does not carry. Their tables share one Row type and one
// renderer. A4's Pearson row alone calls the simulator directly: its
// allocator scores pairs with a cost function no scenario can name.
package exp

import (
	"context"
	"fmt"

	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/websearch"
	"repro/pkg/dcsim"
	"repro/pkg/dcsim/model"
	"repro/pkg/dcsim/report"
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

// baseScenario maps the Setup-2 options onto a façade scenario; zero-valued
// knobs resolve to the façade defaults at Run (or Normalized) time. Its
// policy is left unset, so a grid's policy axis pairs each policy with its
// governor: Eqn 4 for the correlation-aware allocator, the worst case for
// the baselines.
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

// runGrid executes a Setup-2 grid on the sweep engine at the configured
// parallelism. Aggregates are deterministic regardless of Workers, so the
// serial (Workers <= 1) and fanned-out artifacts publish identical rows.
// Without an error every cell is present, in grid order.
func runGrid(o model.RunOptions, g sweep.Grid) (*sweep.Result, error) {
	workers := o.Workers
	if workers < 1 {
		workers = 1
	}
	return sweep.Run(context.Background(), g, sweep.Options{Workers: workers})
}

// Row is one line of a Setup-2 table: a policy or configuration, its
// energy normalized to a BFD run on the same traces, its maximum QoS
// violations over periods and servers, its mean active servers and its VM
// migrations.
type Row struct {
	Label           string
	NormalizedPower float64
	MaxViolationPct float64
	MeanActive      float64
	Migrations      int
}

// cellRow is one sweep cell's row, its energy normalized against the
// energy of a BFD run, baselineJ, which every active server's idle draw
// makes positive. Each cell runs one replica, so every mean is that run's
// value.
func cellRow(label string, c sweep.CellResult, baselineJ float64) Row {
	return Row{
		Label:           label,
		NormalizedPower: c.EnergyJ.Mean / baselineJ,
		MaxViolationPct: c.MaxViolationPct.Mean,
		MeanActive:      c.MeanActive.Mean,
		Migrations:      int(c.Migrations.Mean),
	}
}

// sweepRows is a row per cell of a sweep, in grid order, each normalized
// against baselineJ.
func sweepRows(res *sweep.Result, baselineJ float64, label func(c sweep.CellResult) string) []Row {
	rows := make([]Row, len(res.Cells))
	for i, c := range res.Cells {
		rows[i] = cellRow(label(c), c, baselineJ)
	}
	return rows
}

// policyRows runs the Setup-2 scenario once per policy, as one grid over
// the policy axis, and labels policies[i]'s row labels[i]. Every row
// normalizes against the first policy's cell, BFD.
func policyRows(o model.RunOptions, name string, rescaleEvery int, policies, labels []string) ([]Row, error) {
	sc := baseScenario(o)
	sc.RescaleEvery = rescaleEvery
	axis := sweep.Axis{Field: "policy"}
	for _, p := range policies {
		axis.Values = append(axis.Values, p)
	}
	res, err := runGrid(o, sweep.Grid{Name: name, Base: sc, Axes: []sweep.Axis{axis}})
	if err != nil {
		return nil, err
	}
	return sweepRows(res, res.Cells[0].EnergyJ.Mean, func(c sweep.CellResult) string {
		return labels[c.Index]
	}), nil
}

// rowTable renders rows under the first column's heading; migrations adds
// the column the extended table reports.
func rowTable(head string, rows []Row, migrations bool) string {
	cols := []string{head, "normalized power", "max violations (%)", "mean active"}
	if migrations {
		cols = append(cols, "migrations")
	}
	t := report.NewTable(cols...)
	for _, r := range rows {
		cells := []string{r.Label,
			fmt.Sprintf("%.3f", r.NormalizedPower),
			fmt.Sprintf("%.1f", r.MaxViolationPct),
			fmt.Sprintf("%.1f", r.MeanActive)}
		if migrations {
			cells = append(cells, fmt.Sprint(r.Migrations))
		}
		t.AddRow(cells...)
	}
	return t.String()
}

// wsConfig returns the Setup-1 configuration at the chosen horizon.
func wsConfig(o model.RunOptions) websearch.Config {
	cfg := websearch.DefaultConfig()
	cfg.Duration = o.WebSearchDuration
	return cfg
}
