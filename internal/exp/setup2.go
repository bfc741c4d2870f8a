package exp

import (
	"context"
	"fmt"
	"strings"

	"repro/pkg/dcsim"
	"repro/pkg/dcsim/model"
	"repro/pkg/dcsim/report"
)

// TableIIResult reproduces Table II: normalized power and maximum QoS
// violations of BFD, PCP, and the proposed policy, under static or dynamic
// v/f scaling.
type TableIIResult struct {
	Dynamic bool
	Rows    []Row
	// SavingsPct and QoSImprovementPP are the paper's headline numbers:
	// the proposed policy's power saving against BFD, in percent, and its
	// fewer maximum violations, in percentage points.
	SavingsPct       float64
	QoSImprovementPP float64
}

// TableII runs the three policies on the Setup-2 traces as one grid.
// dynamic selects Table II(b): v/f rescaling every 12 samples (1 min).
func TableII(o model.RunOptions, dynamic bool) (*TableIIResult, error) {
	rescale := 0
	if dynamic {
		rescale = 12
	}
	rows, err := policyRows(o, "tableii", rescale,
		[]string{"bfd", "pcp", "corr-aware"}, []string{"BFD", "PCP", "Proposed"})
	if err != nil {
		return nil, err
	}
	bfd, prop := rows[0], rows[2]
	return &TableIIResult{
		Dynamic:          dynamic,
		Rows:             rows,
		SavingsPct:       100 * (1 - prop.NormalizedPower),
		QoSImprovementPP: bfd.MaxViolationPct - prop.MaxViolationPct,
	}, nil
}

// String implements fmt.Stringer.
func (r *TableIIResult) String() string {
	mode := "static"
	if r.Dynamic {
		mode = "dynamic"
	}
	return fmt.Sprintf("Table II(%s v/f scaling)\n", mode) + rowTable("policy", r.Rows, false) +
		fmt.Sprintf("Proposed vs BFD: %.1f%% power saving, %.1f pp fewer violations\n",
			r.SavingsPct, r.QoSImprovementPP)
}

// LevelShare is the fraction of active time one server spent at each
// frequency level (indexed as in the model.ServerSpec).
type LevelShare struct {
	Server    int
	Fractions []float64
	Samples   int
}

// levelResidency extracts per-server level shares from a simulation result,
// skipping servers that were never active.
func levelResidency(res *model.Result) []LevelShare {
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

// Fig6Result reproduces Fig. 6: frequency-level residency of BFD versus the
// proposed policy on representative servers (static mode).
type Fig6Result struct {
	Freqs    []float64
	BFD      []LevelShare
	Proposed []LevelShare
	// LowBFD and LowProposed aggregate the fraction of active server time
	// spent at the lowest level under each policy.
	LowBFD, LowProposed float64
}

// Fig6 runs the static Table-II(a) configuration of BFD and the proposed
// policy and extracts residency. It runs the two scenarios itself rather
// than as a grid, because it reads each server's FreqResidency, which a
// sweep cell does not carry.
func Fig6(o model.RunOptions) (*Fig6Result, error) {
	var shares [2][]LevelShare
	for i, policy := range []string{"bfd", "corr-aware"} {
		sc := baseScenario(o)
		sc.Policy = policy
		res, err := dcsim.Run(context.Background(), sc)
		if err != nil {
			return nil, err
		}
		shares[i] = levelResidency(res)
	}
	lowShare := func(policy []LevelShare) float64 {
		var low, total float64
		for _, s := range policy {
			low += s.Fractions[0] * float64(s.Samples)
			total += float64(s.Samples)
		}
		if total == 0 {
			return 0
		}
		return low / total
	}
	return &Fig6Result{
		Freqs:       setup2Spec().Freqs,
		BFD:         shares[0],
		Proposed:    shares[1],
		LowBFD:      lowShare(shares[0]),
		LowProposed: lowShare(shares[1]),
	}, nil
}

// String implements fmt.Stringer; it prints the two representative servers
// the paper shows (the first and third active servers) plus the aggregate.
func (r *Fig6Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 6 — frequency-level residency (static mode)\n")
	show := func(name string, shares []LevelShare) {
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
