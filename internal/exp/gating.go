package exp

import (
	"fmt"
	"strings"

	"repro/internal/websearch"
	"repro/pkg/dcsim/model"
	"repro/pkg/dcsim/report"
)

// GatingRow is one power-management approach in the Section-III-A study.
type GatingRow struct {
	Approach  string
	P90       []float64 // per cluster, seconds
	P99       []float64 // per cluster, seconds
	MeanCores float64   // average online cores per 8-core server
}

// GatingResult reproduces the paper's Section III-A argument: dynamic core
// power-gating (parking) cannot track the fast demand swings of scale-out
// workloads — the unpark transition latency inflates tail latency — so
// voltage/frequency scaling is the usable knob.
type GatingResult struct {
	Rows []GatingRow
	// TailPenaltyPct is the p99 inflation of core parking versus keeping
	// every core online, in percent (worst cluster) — the transition-
	// latency damage of Section III-A.
	TailPenaltyPct float64
}

// PowerGating compares three managers on the Shared-Corr placement:
// full speed (no management), DVFS at the low level, and core parking at
// full speed.
func PowerGating(o model.RunOptions) (*GatingResult, error) {
	cfg := wsConfig(o)
	// Flash-crowd surges: the fast demand swings of Section III-A. DVFS
	// keeps every core online and absorbs them; parking is one wake
	// latency behind.
	cfg.SurgeEvery = 90
	cfg.SurgeClients = 280
	cfg.SurgeDur = 15
	spec := wsSpec()
	slow := spec.FMin() / spec.FMax()

	runs := []struct {
		name    string
		pl      *model.WebSearchPlacement
		parking *websearch.ParkingConfig
	}{
		{"full speed", websearch.SharedCorr(1), nil},
		{"DVFS @fmin", websearch.SharedCorr(slow), nil},
		{"core parking", websearch.SharedCorr(1), parkingConfig()},
	}
	out := &GatingResult{}
	for _, r := range runs {
		c := cfg
		c.Parking = r.parking
		res, err := websearch.Run(c, r.pl)
		if err != nil {
			return nil, err
		}
		cores := 0.0
		for _, pc := range res.PoolCores {
			cores += pc.Mean()
		}
		out.Rows = append(out.Rows, GatingRow{
			Approach:  r.name,
			P90:       res.P90,
			P99:       res.P99,
			MeanCores: cores / float64(len(res.PoolCores)),
		})
	}
	full, park := out.Rows[0], out.Rows[2]
	for c := range full.P99 {
		if full.P99[c] > 0 {
			pen := 100 * (park.P99[c] - full.P99[c]) / full.P99[c]
			if pen > out.TailPenaltyPct {
				out.TailPenaltyPct = pen
			}
		}
	}
	return out, nil
}

// parkingConfig models realistic virtualized core offlining: multi-second
// unpark transitions (vCPU hot-add plus scheduler rebalancing).
func parkingConfig() *websearch.ParkingConfig {
	p := websearch.DefaultParking()
	p.WakeDelay = 3
	return p
}

// String implements fmt.Stringer.
func (r *GatingResult) String() string {
	var b strings.Builder
	b.WriteString("Section III-A — power gating vs v/f scaling on a scale-out cluster\n")
	t := report.NewTable("approach", "p90 C1 (s)", "p90 C2 (s)", "p99 C1 (s)", "p99 C2 (s)", "mean online cores")
	for _, row := range r.Rows {
		t.AddRow(row.Approach,
			fmt.Sprintf("%.3f", row.P90[0]),
			fmt.Sprintf("%.3f", row.P90[1]),
			fmt.Sprintf("%.3f", row.P99[0]),
			fmt.Sprintf("%.3f", row.P99[1]),
			fmt.Sprintf("%.1f", row.MeanCores))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "core parking inflates p99 by %.0f%% over keeping all cores online\n", r.TailPenaltyPct)
	return b.String()
}
