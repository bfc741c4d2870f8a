package exp

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/pkg/dcsim"
	"repro/pkg/dcsim/model"
	"repro/pkg/dcsim/sweep"
)

// AblationResult is a generic sweep outcome.
type AblationResult struct {
	Title string
	Rows  []Row
}

// String implements fmt.Stringer.
func (r *AblationResult) String() string {
	return r.Title + "\n" + rowTable("config", r.Rows, false)
}

// axisAblation runs a single-axis ablation: one grid over the
// correlation-aware scenario with the one axis, each cell's row labelled by
// label and normalized against one BFD run on the same synthesized traces.
func axisAblation(o model.RunOptions, name, title string, axis sweep.Axis, label func(sweep.CellResult) string) (*AblationResult, error) {
	sc := baseScenario(o)
	sc.Policy = "bfd"
	bfd, err := dcsim.Run(context.Background(), sc)
	if err != nil {
		return nil, err
	}
	sc.Policy = "corr-aware"
	res, err := runGrid(o, sweep.Grid{Name: name, Base: sc, Axes: []sweep.Axis{axis}})
	if err != nil {
		return nil, err
	}
	return &AblationResult{Title: title, Rows: sweepRows(res, bfd.EnergyJ, label)}, nil
}

// AblationThreshold sweeps the initial correlation threshold THcost (A1) —
// pure config on the sweep engine since THcost is a scenario param.
func AblationThreshold(o model.RunOptions) (*AblationResult, error) {
	return axisAblation(o, "a1-thcost", "Ablation A1 — initial threshold THcost (alpha=0.9)",
		sweep.Axis{Field: "param:thcost", Values: []any{1.0, 1.1, 1.15, 1.25, 1.4}},
		func(c sweep.CellResult) string { return fmt.Sprintf("THcost=%.2f", c.Scenario.Params["thcost"]) })
}

// AblationReference sweeps the reference percentile û (A2). The matrix and
// the placement references move together, as in the paper's QoS knob — the
// façade wires both from Scenario.Pctl.
func AblationReference(o model.RunOptions) (*AblationResult, error) {
	return axisAblation(o, "a2-reference", "Ablation A2 — reference utilization percentile",
		sweep.Axis{Field: "pctl", Values: []any{1.0, 0.99, 0.95, 0.90}},
		func(c sweep.CellResult) string {
			if c.Scenario.Pctl >= 1 {
				return "peak"
			}
			return fmt.Sprintf("p%.0f", c.Scenario.Pctl*100)
		})
}

// AblationPredictor swaps the per-period workload predictor (A3) by
// registry name.
func AblationPredictor(o model.RunOptions) (*AblationResult, error) {
	return axisAblation(o, "a3-predictor", "Ablation A3 — workload predictor",
		sweep.Axis{Field: "predictor", Values: []any{"last-value", "moving-average", "ewma", "max-of"}},
		func(c sweep.CellResult) string { return c.Scenario.Predictor })
}

// AblationMetric compares the Eqn-1 cost against windowed Pearson
// correlation as the placement affinity (A4). Pearson is rescaled to the
// cost range (corr -1..1 -> pseudo-cost 2..1) so the same allocator and
// thresholds apply.
func AblationMetric(o model.RunOptions) (*AblationResult, error) {
	res, err := runGrid(o, sweep.Grid{
		Name: "a4-metric",
		Base: baseScenario(o),
		Axes: []sweep.Axis{{Field: "policy", Values: []any{"bfd", "corr-aware"}}},
	})
	if err != nil {
		return nil, err
	}
	bfdJ := res.Cells[0].EnergyJ.Mean
	// The Pearson row is the one run a Scenario cannot express: the
	// allocator scores pairs with a custom cost function, recomputed per
	// placement, while the streaming matrix still drives Eqn 4 (the paper
	// has no Pearson analogue for the frequency decision).
	ds, err := dcsim.GenerateTraces(workload(o))
	if err != nil {
		return nil, err
	}
	vms := model.VMsFromSeries(ds.Names, ds.Fine)
	m := core.NewCostMatrix(len(vms), 1)
	pearson, err := sim.Run(vms, sim.Config{
		Spec:          setup2Spec(),
		Power:         setup2Power(),
		Policy:        &core.Allocator{Config: core.DefaultConfig(), Cost: pearsonAffinity(vms)},
		Governor:      sim.CorrAware{Matrix: m},
		MaxServers:    o.MaxServers,
		PeriodSamples: o.PeriodSamples,
		Pctl:          1,
		Predictor:     predict.LastValue{},
		Matrix:        m,
	})
	if err != nil {
		return nil, fmt.Errorf("exp: ablation A4 pearson: %w", err)
	}
	return &AblationResult{
		Title: "Ablation A4 — placement affinity metric",
		Rows: []Row{
			cellRow("eqn1-cost", res.Cells[1], bfdJ),
			{
				Label:           "pearson",
				NormalizedPower: pearson.EnergyJ / bfdJ,
				MaxViolationPct: pearson.MaxViolationPct,
				MeanActive:      pearson.MeanActive,
			},
		},
	}, nil
}

// pearsonAffinity builds a pseudo-cost from full-trace Pearson correlation.
// It is deliberately window-less (the whole point of Eqn 1 is that Pearson
// needs the full sample history).
func pearsonAffinity(vms []*model.VM) model.PairCostFunc {
	cache := map[[2]int]float64{}
	return func(i, j int) float64 {
		if i == j {
			return 1
		}
		if i > j {
			i, j = j, i
		}
		key := [2]int{i, j}
		if c, ok := cache[key]; ok {
			return c
		}
		corr := stats.PearsonOf(vms[i].Demand.Samples(), vms[j].Demand.Samples())
		c := 1 + (1-corr)/2 // corr 1 -> 1.0; corr -1 -> 2.0
		cache[key] = c
		return c
	}
}

// AblationMatrixWindow compares per-period matrix resets against cumulative
// monitoring (A6 — the CumulativeMatrix switch in the simulator).
func AblationMatrixWindow(o model.RunOptions) (*AblationResult, error) {
	return axisAblation(o, "a6-window", "Ablation A6 — monitoring window",
		sweep.Axis{Field: "cumulative_matrix", Values: []any{false, true}},
		func(c sweep.CellResult) string {
			if c.Scenario.CumulativeMatrix {
				return "cumulative"
			}
			return "per-period reset"
		})
}

// AblationCorrelationStructure runs the proposed policy on traces with no
// shared group structure (A5's "nothing to exploit" control): its advantage
// over BFD should shrink toward zero. The grid crosses the group count
// (grouped vs one-VM-per-group) with the policy, and each structure's rows
// normalize against the BFD cell of the same traces.
func AblationCorrelationStructure(o model.RunOptions) (*AblationResult, error) {
	w := workload(o)
	res, err := runGrid(o, sweep.Grid{
		Name: "a5-structure",
		Base: baseScenario(o),
		Axes: []sweep.Axis{
			{Field: "groups", Values: []any{w.Groups, w.VMs}},
			{Field: "policy", Values: []any{"corr-aware", "bfd"}},
		},
	})
	if err != nil {
		return nil, err
	}
	out := &AblationResult{Title: "Ablation A5 — correlation structure in the traces"}
	for i, kind := range []string{"grouped", "uncorrelated"} {
		prop, bfd := res.Cells[2*i], res.Cells[2*i+1]
		out.Rows = append(out.Rows,
			cellRow(kind, prop, bfd.EnergyJ.Mean),
			cellRow(kind+" (BFD ref)", bfd, bfd.EnergyJ.Mean))
	}
	return out, nil
}

// AblationLevels compares the two-level E5410 against a hypothetical
// six-level part (A7): finer DVFS quantization lets Eqn 4 convert more of
// the correlation headroom into power savings. The grid crosses the server
// model with the policy; each hardware's row normalizes against the BFD
// cell on the same hardware.
func AblationLevels(o model.RunOptions) (*AblationResult, error) {
	res, err := runGrid(o, sweep.Grid{
		Name: "a7-levels",
		Base: baseScenario(o),
		Axes: []sweep.Axis{
			{Field: "server", Values: []any{"xeon-e5410", "xeon-6level"}},
			{Field: "policy", Values: []any{"bfd", "corr-aware"}},
		},
	})
	if err != nil {
		return nil, err
	}
	out := &AblationResult{Title: "Ablation A7 — DVFS level granularity"}
	for i, label := range []string{"2 levels (E5410)", "6 levels"} {
		bfd, prop := res.Cells[2*i], res.Cells[2*i+1]
		out.Rows = append(out.Rows, cellRow(label, prop, bfd.EnergyJ.Mean))
	}
	return out, nil
}

// AblationOracle quantifies how much of the violation gap is prediction
// error (A8): both BFD and the proposed policy with last-value prediction
// versus a per-period oracle, as a policy × oracle grid normalized against
// the BFD/last-value cell.
func AblationOracle(o model.RunOptions) (*AblationResult, error) {
	res, err := runGrid(o, sweep.Grid{
		Name: "a8-oracle",
		Base: baseScenario(o),
		Axes: []sweep.Axis{
			{Field: "policy", Values: []any{"bfd", "corr-aware"}},
			{Field: "oracle", Values: []any{false, true}},
		},
	})
	if err != nil {
		return nil, err
	}
	labels := []string{"BFD last-value", "BFD oracle", "Proposed last-value", "Proposed oracle"}
	return &AblationResult{
		Title: "Ablation A8 — prediction error vs placement",
		Rows: sweepRows(res, res.Cells[0].EnergyJ.Mean, func(c sweep.CellResult) string {
			return labels[c.Index]
		}),
	}, nil
}
