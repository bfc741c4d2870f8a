package exp

import (
	"fmt"
	"strings"

	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/websearch"
	"repro/pkg/dcsim/model"
	"repro/pkg/dcsim/report"
)

// Fig1Result reproduces Fig. 1: CPU utilization of two ISNs in one cluster
// against the client wave — intra-cluster synchrony plus load imbalance.
type Fig1Result struct {
	Clients    *model.Series
	VM1, VM2   *model.Series
	CorrVM1    float64 // Pearson(VM1 util, clients), smoothed
	CorrVM2    float64
	CorrIntra  float64 // Pearson(VM1, VM2), smoothed
	ImbalanceP float64 // mean(VM2)/mean(VM1): persistent skew between ISNs
}

// Fig1 runs one web-search cluster segregated on dedicated cores and
// extracts the traces of its two ISNs.
func Fig1(o model.RunOptions) (*Fig1Result, error) {
	cfg := wsConfig(o)
	res, err := websearch.Run(cfg, websearch.Segregated(1))
	if err != nil {
		return nil, err
	}
	smooth := func(s *model.Series) *model.Series { return s.Downsample(10) }
	c := smooth(res.ClientTrace[0])
	v1 := smooth(res.VMUtil[0])
	v2 := smooth(res.VMUtil[1])
	out := &Fig1Result{
		Clients:   res.ClientTrace[0],
		VM1:       res.VMUtil[0],
		VM2:       res.VMUtil[1],
		CorrVM1:   stats.PearsonOf(v1.Samples(), c.Samples()),
		CorrVM2:   stats.PearsonOf(v2.Samples(), c.Samples()),
		CorrIntra: stats.PearsonOf(v1.Samples(), v2.Samples()),
	}
	if m := res.VMUtil[0].Mean(); m > 0 {
		out.ImbalanceP = res.VMUtil[1].Mean() / m
	}
	return out, nil
}

// String implements fmt.Stringer.
func (r *Fig1Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 1 — ISN utilization follows the client wave (one cluster, 2 ISNs)\n")
	fmt.Fprintf(&b, "  clients  %s\n", report.Sparkline(r.Clients, 72, 0, 300))
	fmt.Fprintf(&b, "  VM1,1    %s\n", report.Sparkline(r.VM1, 72, 0, 5))
	fmt.Fprintf(&b, "  VM1,2    %s\n", report.Sparkline(r.VM2, 72, 0, 5))
	fmt.Fprintf(&b, "  corr(VM1,clients)=%.3f corr(VM2,clients)=%.3f corr(VM1,VM2)=%.3f\n",
		r.CorrVM1, r.CorrVM2, r.CorrIntra)
	fmt.Fprintf(&b, "  load imbalance mean(VM1,2)/mean(VM1,1) = %.2f\n", r.ImbalanceP)
	return b.String()
}

// Fig4Result reproduces Fig. 4: per-server utilization traces under the
// three placements.
type Fig4Result struct {
	Placements []string
	// PoolUtil[p] holds the normalized (0..1) utilization traces of each
	// pool under placement p.
	PoolUtil [][]*model.Series
	// SmoothedMax[p] is the maximum 30-s-smoothed server utilization
	// under placement p — the number the paper quotes (0.88 for
	// Shared-UnCorr vs 0.6 for Shared-Corr).
	SmoothedMax []float64
}

// Fig4 runs the three placements at full frequency.
func Fig4(o model.RunOptions) (*Fig4Result, error) {
	cfg := wsConfig(o)
	placements := []*model.WebSearchPlacement{
		websearch.Segregated(1),
		websearch.SharedUnCorr(1),
		websearch.SharedCorr(1),
	}
	out := &Fig4Result{}
	for _, pl := range placements {
		res, err := websearch.Run(cfg, pl)
		if err != nil {
			return nil, err
		}
		out.Placements = append(out.Placements, pl.Name)
		out.PoolUtil = append(out.PoolUtil, res.PoolUtil)
		max := 0.0
		for _, pu := range res.PoolUtil {
			if m := pu.Downsample(30).Max(); m > max {
				max = m
			}
		}
		out.SmoothedMax = append(out.SmoothedMax, max)
	}
	return out, nil
}

// String implements fmt.Stringer.
func (r *Fig4Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 4 — server CPU utilization under the three placements\n")
	for p, name := range r.Placements {
		fmt.Fprintf(&b, "  %-14s peak(30s-smoothed) = %.2f\n", name, r.SmoothedMax[p])
		for i, pu := range r.PoolUtil[p] {
			fmt.Fprintf(&b, "    pool%d %s\n", i, report.Sparkline(pu, 64, 0, 1))
		}
	}
	return b.String()
}

// Fig5Row is one bar of Fig. 5.
type Fig5Row struct {
	Placement  string
	FreqGHz    float64
	P90        []float64 // per cluster, seconds
	MeanPowerW float64   // both servers, via the R815 power model
}

// Fig5Result reproduces Fig. 5: 90th-percentile response times of the
// placements, including Shared-Corr at the reduced frequency, plus the
// ~12% power saving claim.
type Fig5Result struct {
	Rows []Fig5Row
	// SavingPct is the power saving of Shared-Corr@fmin versus
	// Shared-UnCorr@fmax.
	SavingPct float64
}

// Fig5 runs the frequency comparison.
func Fig5(o model.RunOptions) (*Fig5Result, error) {
	cfg := wsConfig(o)
	spec := wsSpec()
	pm := power.OpteronR815()
	fmax, fmin := spec.FMax(), spec.FMin()

	type runSpec struct {
		pl   *model.WebSearchPlacement
		freq float64
	}
	runs := []runSpec{
		{websearch.Segregated(1), fmax},
		{websearch.SharedUnCorr(1), fmax},
		{websearch.SharedCorr(1), fmax},
		{websearch.SharedCorr(fmin / fmax), fmin},
	}
	out := &Fig5Result{}
	for _, rs := range runs {
		res, err := websearch.Run(cfg, rs.pl)
		if err != nil {
			return nil, err
		}
		row := Fig5Row{Placement: rs.pl.Name, FreqGHz: rs.freq, P90: res.P90}
		// Mean power across pools: utilization is normalized to full
		// cores; convert to the busy fraction of the capacity at f.
		speed := rs.freq / fmax
		var sum float64
		var n int
		for _, pu := range res.PoolUtil {
			for i := 0; i < pu.Len(); i++ {
				u := pu.At(i) / speed
				p, err := pm.Power(u, rs.freq)
				if err != nil {
					return nil, err
				}
				sum += p
				n++
			}
		}
		// Scale per-pool mean power to the two 8-core servers: pools
		// partition the servers' 16 cores.
		perPool := sum / float64(n)
		cores := 0
		for _, c := range rs.pl.PoolCores {
			cores += c
		}
		row.MeanPowerW = perPool * float64(cores) / 8 // per-8-core-server units summed
		out.Rows = append(out.Rows, row)
	}
	// Saving: Shared-Corr@fmin vs Shared-UnCorr@fmax.
	if out.Rows[1].MeanPowerW > 0 {
		out.SavingPct = 100 * (1 - out.Rows[3].MeanPowerW/out.Rows[1].MeanPowerW)
	}
	return out, nil
}

// String implements fmt.Stringer.
func (r *Fig5Result) String() string {
	t := report.NewTable("placement", "freq (GHz)", "p90 C1 (s)", "p90 C2 (s)", "mean power (W)")
	for _, row := range r.Rows {
		t.AddRow(row.Placement,
			fmt.Sprintf("%.1f", row.FreqGHz),
			fmt.Sprintf("%.3f", row.P90[0]),
			fmt.Sprintf("%.3f", row.P90[1]),
			fmt.Sprintf("%.0f", row.MeanPowerW))
	}
	return "Fig. 5 — 90th-percentile response time and power\n" + t.String() +
		fmt.Sprintf("Shared-Corr@fmin saves %.1f%% power vs Shared-UnCorr@fmax\n", r.SavingPct)
}
