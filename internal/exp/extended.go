package exp

import "repro/pkg/dcsim/model"

// ExtendedResult widens Table II(a) beyond the paper: it adds the FFD
// heuristic and the Joint-VM sizing baseline of Meng et al. (ICAC 2010,
// discussed in the paper's related work), and reports placement churn
// (VM migrations across period boundaries), a cost the paper does not
// quantify.
type ExtendedResult struct {
	Rows []Row
}

// TableIIExtended runs five policies on the Setup-2 traces, static v/f
// scaling, as one grid.
func TableIIExtended(o model.RunOptions) (*ExtendedResult, error) {
	rows, err := policyRows(o, "extended", 0,
		[]string{"bfd", "ffd", "pcp", "jointvm", "corr-aware"},
		[]string{"BFD", "FFD", "PCP", "JointVM", "Proposed"})
	if err != nil {
		return nil, err
	}
	return &ExtendedResult{Rows: rows}, nil
}

// String implements fmt.Stringer.
func (r *ExtendedResult) String() string {
	return "Extended comparison (static v/f scaling; beyond the paper)\n" + rowTable("policy", r.Rows, true)
}
