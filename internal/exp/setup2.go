package exp

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/pkg/dcsim/model"
	"repro/pkg/dcsim/report"
)

// TableIIResult reproduces Table II: normalized power and maximum QoS
// violations of BFD, PCP, and the proposed policy, under static or dynamic
// v/f scaling.
type TableIIResult struct {
	Dynamic bool
	Rows    []metrics.Row
	// SavingsPct and QoSImprovementPP are the paper's headline numbers:
	// proposed versus the worst baseline.
	SavingsPct       float64
	QoSImprovementPP float64
}

// TableII runs the three policies on the Setup-2 traces. dynamic selects
// Table II(b): v/f rescaling every 12 samples (1 min).
func TableII(o model.RunOptions, dynamic bool) (*TableIIResult, error) {
	vms := datacenterVMs(o)
	rescale := 0
	if dynamic {
		rescale = 12
	}
	var results []*model.Result
	for _, kind := range []string{"bfd", "pcp", "corr"} {
		r, err := runPolicy(o, vms, kind, rescale)
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", kind, err)
		}
		results = append(results, r)
	}
	out := &TableIIResult{
		Dynamic: dynamic,
		Rows:    metrics.TableRows(results),
	}
	bfd, prop := results[0], results[2]
	out.SavingsPct = metrics.SavingsPct(prop, bfd)
	out.QoSImprovementPP = metrics.QoSImprovementPP(prop, bfd)
	return out, nil
}

// String implements fmt.Stringer.
func (r *TableIIResult) String() string {
	mode := "static"
	if r.Dynamic {
		mode = "dynamic"
	}
	t := report.NewTable("policy", "normalized power", "max violations (%)", "mean active")
	name := map[string]string{"BFD": "BFD", "PCP": "PCP", "CorrAware": "Proposed"}
	for _, row := range r.Rows {
		t.AddRow(name[row.Policy],
			fmt.Sprintf("%.3f", row.NormalizedPower),
			fmt.Sprintf("%.1f", row.MaxViolationPct),
			fmt.Sprintf("%.1f", row.MeanActive))
	}
	return fmt.Sprintf("Table II(%s v/f scaling)\n", mode) + t.String() +
		fmt.Sprintf("Proposed vs BFD: %.1f%% power saving, %.1f pp fewer violations\n",
			r.SavingsPct, r.QoSImprovementPP)
}

// Fig6Result reproduces Fig. 6: frequency-level residency of BFD versus the
// proposed policy on representative servers (static mode).
type Fig6Result struct {
	Freqs    []float64
	BFD      []metrics.LevelShare
	Proposed []metrics.LevelShare
	// LowLevelShare aggregates the fraction of active server time spent
	// at the lowest level under each policy.
	LowBFD, LowProposed float64
}

// Fig6 runs the static Table-II(a) configuration and extracts residency.
func Fig6(o model.RunOptions) (*Fig6Result, error) {
	vms := datacenterVMs(o)
	spec := setup2Spec()
	bfd, err := runPolicy(o, vms, "bfd", 0)
	if err != nil {
		return nil, err
	}
	prop, err := runPolicy(o, vms, "corr", 0)
	if err != nil {
		return nil, err
	}
	out := &Fig6Result{
		Freqs:    spec.Freqs,
		BFD:      metrics.LevelResidency(bfd, spec),
		Proposed: metrics.LevelResidency(prop, spec),
	}
	lowShare := func(shares []metrics.LevelShare) float64 {
		var low, total float64
		for _, s := range shares {
			low += s.Fractions[0] * float64(s.Samples)
			total += float64(s.Samples)
		}
		if total == 0 {
			return 0
		}
		return low / total
	}
	out.LowBFD = lowShare(out.BFD)
	out.LowProposed = lowShare(out.Proposed)
	return out, nil
}

// String implements fmt.Stringer; it prints the two representative servers
// the paper shows (the first and third active servers) plus the aggregate.
func (r *Fig6Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 6 — frequency-level residency (static mode)\n")
	show := func(name string, shares []metrics.LevelShare) {
		picks := []int{0, 2} // Server1 and Server3, as in the paper
		for _, p := range picks {
			if p >= len(shares) {
				continue
			}
			s := shares[p]
			fmt.Fprintf(&b, "  %-9s server%d:", name, s.Server+1)
			for li, f := range s.Fractions {
				fmt.Fprintf(&b, "  %.1fGHz %s %4.0f%%", r.Freqs[li], report.Bar(f, 12), 100*f)
			}
			b.WriteString("\n")
		}
	}
	show("BFD", r.BFD)
	show("Proposed", r.Proposed)
	fmt.Fprintf(&b, "  time at %.1f GHz (all servers): BFD %.0f%%, Proposed %.0f%%\n",
		r.Freqs[0], 100*r.LowBFD, 100*r.LowProposed)
	return b.String()
}
