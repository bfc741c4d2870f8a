package exp

import (
	"fmt"

	"repro/pkg/dcsim/model"
	"repro/pkg/dcsim/report"
)

// ExtendedRow is one policy of the extended comparison.
type ExtendedRow struct {
	Policy          string
	NormalizedPower float64
	MaxViolationPct float64
	MeanActive      float64
	Migrations      int
}

// ExtendedResult widens Table II beyond the paper: it adds the FFD
// heuristic and the Joint-VM sizing baseline of Meng et al. (ICAC 2010,
// discussed in the paper's related work), and reports placement churn
// (VM migrations across period boundaries), a cost the paper does not
// quantify.
type ExtendedResult struct {
	Dynamic bool
	Rows    []ExtendedRow
}

// TableIIExtended runs five policies on the Setup-2 traces.
func TableIIExtended(o model.RunOptions, dynamic bool) (*ExtendedResult, error) {
	vms := datacenterVMs(o)
	rescale := 0
	if dynamic {
		rescale = 12
	}
	out := &ExtendedResult{Dynamic: dynamic}
	var baseline *model.Result
	for _, e := range []struct{ name, kind string }{
		{"BFD", "bfd"}, {"FFD", "ffd"}, {"PCP", "pcp"}, {"JointVM", "jointvm"}, {"Proposed", "corr"},
	} {
		res, err := runPolicy(o, vms, e.kind, rescale)
		if err != nil {
			return nil, fmt.Errorf("exp: extended %s: %w", e.name, err)
		}
		if baseline == nil {
			baseline = res
		}
		out.Rows = append(out.Rows, ExtendedRow{
			Policy:          e.name,
			NormalizedPower: res.NormalizedPower(baseline),
			MaxViolationPct: res.MaxViolationPct,
			MeanActive:      res.MeanActive,
			Migrations:      res.TotalMigrations,
		})
	}
	return out, nil
}

// String implements fmt.Stringer.
func (r *ExtendedResult) String() string {
	mode := "static"
	if r.Dynamic {
		mode = "dynamic"
	}
	t := report.NewTable("policy", "normalized power", "max violations (%)", "mean active", "migrations")
	for _, row := range r.Rows {
		t.AddRow(row.Policy,
			fmt.Sprintf("%.3f", row.NormalizedPower),
			fmt.Sprintf("%.1f", row.MaxViolationPct),
			fmt.Sprintf("%.1f", row.MeanActive),
			fmt.Sprint(row.Migrations))
	}
	return fmt.Sprintf("Extended comparison (%s v/f scaling; beyond the paper)\n", mode) + t.String()
}
