// Package metrics turns raw simulation results into the quantities the
// paper reports: normalized power, QoS-violation deltas, and per-server
// frequency-level residency distributions.
package metrics

import (
	"fmt"

	"repro/pkg/dcsim/model"
)

// LevelShare is the fraction of active time one server spent at each
// frequency level (indexed as in the model.ServerSpec).
type LevelShare struct {
	Server    int
	Fractions []float64
	Samples   int
}

// LevelResidency extracts per-server level shares from a simulation result,
// skipping servers that were never active.
func LevelResidency(res *model.Result, spec model.ServerSpec) []LevelShare {
	var out []LevelShare
	for s, counts := range res.FreqResidency {
		total := 0
		for _, c := range counts {
			total += c
		}
		if total == 0 {
			continue
		}
		fr := make([]float64, len(counts))
		for i, c := range counts {
			fr[i] = float64(c) / float64(total)
		}
		out = append(out, LevelShare{Server: s, Fractions: fr, Samples: total})
	}
	return out
}

// SavingsPct returns the percentage power saving of res versus baseline
// (positive = res cheaper).
func SavingsPct(res, baseline *model.Result) float64 {
	if baseline.EnergyJ == 0 {
		return 0
	}
	return 100 * (1 - res.EnergyJ/baseline.EnergyJ)
}

// QoSImprovementPP returns the violation reduction of res versus baseline
// in percentage points (positive = res violates less), the paper's "QoS
// improvement" metric.
func QoSImprovementPP(res, baseline *model.Result) float64 {
	return baseline.MaxViolationPct - res.MaxViolationPct
}

// Row is one Table-II line.
type Row struct {
	Policy          string
	NormalizedPower float64
	MaxViolationPct float64
	MeanActive      float64
}

// TableRows renders the Table-II rows for a set of results against the
// first result as the baseline.
func TableRows(results []*model.Result) []Row {
	if len(results) == 0 {
		return nil
	}
	base := results[0]
	rows := make([]Row, len(results))
	for i, r := range results {
		rows[i] = Row{
			Policy:          r.Policy,
			NormalizedPower: r.NormalizedPower(base),
			MaxViolationPct: r.MaxViolationPct,
			MeanActive:      r.MeanActive,
		}
	}
	return rows
}

// String implements fmt.Stringer.
func (r Row) String() string {
	return fmt.Sprintf("%-10s power=%.3f maxViol=%.1f%% active=%.1f",
		r.Policy, r.NormalizedPower, r.MaxViolationPct, r.MeanActive)
}
