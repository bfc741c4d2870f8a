package exp

import (
	"math"
	"strings"
	"testing"

	"repro/pkg/dcsim/model"
)

func TestFig1(t *testing.T) {
	r, err := Fig1(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.CorrVM1 < 0.8 || r.CorrVM2 < 0.8 {
		t.Fatalf("ISN-vs-clients correlations too weak: %v %v", r.CorrVM1, r.CorrVM2)
	}
	if r.CorrIntra < 0.8 {
		t.Fatalf("intra-cluster correlation too weak: %v", r.CorrIntra)
	}
	if r.ImbalanceP < 1.1 {
		t.Fatalf("load imbalance %v, want the heavy ISN clearly above 1", r.ImbalanceP)
	}
	if !strings.Contains(r.String(), "Fig. 1") {
		t.Fatal("String() should label the figure")
	}
}

func TestTableI(t *testing.T) {
	r, err := TableI(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 co-runners", len(r.Rows))
	}
	if r.MaxIPCDeltaPct > 5 {
		t.Fatalf("co-location moved web-search IPC by %v%%, want negligible", r.MaxIPCDeltaPct)
	}
	for _, row := range r.Rows {
		if row.MissAlone < 8 || row.MissAlone > 15 {
			t.Fatalf("alone miss rate %v%%, want ~11%%", row.MissAlone)
		}
	}
	if !strings.Contains(r.String(), "Table I") {
		t.Fatal("String() should label the table")
	}
}

func TestFig3(t *testing.T) {
	r, err := Fig3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 30 {
		t.Fatalf("too few points: %d", len(r.Points))
	}
	// The lower-bound claim: virtually every group's possible slowdown is
	// at or above its Eqn-2 cost.
	if r.AboveLineFrac < 0.95 {
		t.Fatalf("only %v of points on/above Y=X", r.AboveLineFrac)
	}
	// And the relationship is increasing.
	if r.Fit.B <= 0 {
		t.Fatalf("fit slope = %v, want positive", r.Fit.B)
	}
	if !strings.Contains(r.String(), "Fig. 3") {
		t.Fatal("String() should label the figure")
	}
}

func TestFig4(t *testing.T) {
	r, err := Fig4(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Placements) != 3 {
		t.Fatalf("placements = %v", r.Placements)
	}
	// The paper's Fig-4 claim: correlation-aware sharing lowers and evens
	// the peak server utilization versus correlation-oblivious sharing.
	unc, corr := r.SmoothedMax[1], r.SmoothedMax[2]
	if corr >= unc {
		t.Fatalf("Shared-Corr peak %v should be below Shared-UnCorr %v", corr, unc)
	}
	if !strings.Contains(r.String(), "Fig. 4") {
		t.Fatal("String() should label the figure")
	}
}

func TestFig5(t *testing.T) {
	r, err := Fig5(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	seg, unc, corr, corrLow := r.Rows[0], r.Rows[1], r.Rows[2], r.Rows[3]
	for c := 0; c < 2; c++ {
		if unc.P90[c] >= seg.P90[c] {
			t.Fatalf("cluster %d: sharing should beat segregation", c)
		}
		if corr.P90[c] >= unc.P90[c] {
			t.Fatalf("cluster %d: corr-aware should beat uncorr", c)
		}
	}
	// Shared-Corr at fmin stays in the neighbourhood of Shared-UnCorr at
	// fmax (the paper's "similar response time, lower power" claim).
	for c := 0; c < 2; c++ {
		if corrLow.P90[c] > unc.P90[c]*1.25 {
			t.Fatalf("cluster %d: corr@fmin p90 %v too far above uncorr@fmax %v",
				c, corrLow.P90[c], unc.P90[c])
		}
	}
	if r.SavingPct < 5 {
		t.Fatalf("frequency saving = %v%%, want meaningful", r.SavingPct)
	}
	if corrLow.MeanPowerW >= unc.MeanPowerW {
		t.Fatal("reduced frequency should reduce power")
	}
}

func TestTableIIStatic(t *testing.T) {
	r, err := TableII(Quick(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	bfd, pcp, prop := r.Rows[0], r.Rows[1], r.Rows[2]
	if bfd.NormalizedPower != 1 {
		t.Fatalf("BFD is the baseline, power = %v", bfd.NormalizedPower)
	}
	// PCP degenerates to (near) BFD.
	if pcp.NormalizedPower < 0.9 || pcp.NormalizedPower > 1.1 {
		t.Fatalf("PCP power = %v, want near BFD", pcp.NormalizedPower)
	}
	// The proposed policy saves meaningful power without violating more.
	if prop.NormalizedPower > 0.95 {
		t.Fatalf("Proposed power = %v, want clear static saving", prop.NormalizedPower)
	}
	if prop.MaxViolationPct > bfd.MaxViolationPct+0.5 {
		t.Fatalf("Proposed violations %v%% vs BFD %v%%", prop.MaxViolationPct, bfd.MaxViolationPct)
	}
	if !strings.Contains(r.String(), "Table II") {
		t.Fatal("String() should label the table")
	}
}

func TestTableIIDynamic(t *testing.T) {
	r, err := TableII(Quick(), true)
	if err != nil {
		t.Fatal(err)
	}
	prop := r.Rows[2]
	bfd := r.Rows[0]
	// Dynamic mode: power converges (both scale), QoS stays better.
	if prop.NormalizedPower > 1.05 {
		t.Fatalf("Proposed dynamic power = %v, want near/below BFD", prop.NormalizedPower)
	}
	if prop.MaxViolationPct > bfd.MaxViolationPct+0.5 {
		t.Fatalf("Proposed dynamic violations %v%% vs BFD %v%%", prop.MaxViolationPct, bfd.MaxViolationPct)
	}
}

func TestFig6(t *testing.T) {
	r, err := Fig6(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.BFD) == 0 || len(r.Proposed) == 0 {
		t.Fatal("no residency data")
	}
	// The proposed policy must spend clearly more time at the low level.
	if r.LowProposed <= r.LowBFD {
		t.Fatalf("Proposed low-level share %v should exceed BFD %v", r.LowProposed, r.LowBFD)
	}
	for _, s := range append(r.BFD, r.Proposed...) {
		sum := 0.0
		for _, f := range s.Fractions {
			sum += f
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("server %d residency fractions sum to %v", s.Server, sum)
		}
	}
	if !strings.Contains(r.String(), "Fig. 6") {
		t.Fatal("String() should label the figure")
	}
}

func TestLevelResidency(t *testing.T) {
	shares := levelResidency(&model.Result{FreqResidency: [][]int{
		{30, 70},
		{0, 0}, // never active: skipped
		{100, 0},
	}})
	if len(shares) != 2 {
		t.Fatalf("shares = %d, want 2 (idle server skipped)", len(shares))
	}
	if shares[0].Server != 0 || shares[1].Server != 2 {
		t.Fatalf("server ids = %d, %d", shares[0].Server, shares[1].Server)
	}
	if math.Abs(shares[0].Fractions[0]-0.3) > 1e-12 || math.Abs(shares[0].Fractions[1]-0.7) > 1e-12 {
		t.Fatalf("fractions = %v", shares[0].Fractions)
	}
	if shares[0].Samples != 100 {
		t.Fatalf("samples = %d", shares[0].Samples)
	}
}

func TestAblations(t *testing.T) {
	o := Quick()
	type run struct {
		name string
		fn   func(model.RunOptions) (*AblationResult, error)
		rows int
	}
	for _, r := range []run{
		{"threshold", AblationThreshold, 5},
		{"reference", AblationReference, 4},
		{"predictor", AblationPredictor, 4},
		{"metric", AblationMetric, 2},
		{"window", AblationMatrixWindow, 2},
		{"structure", AblationCorrelationStructure, 4},
		{"levels", AblationLevels, 2},
		{"oracle", AblationOracle, 4},
	} {
		res, err := r.fn(o)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if len(res.Rows) != r.rows {
			t.Fatalf("%s: rows = %d, want %d", r.name, len(res.Rows), r.rows)
		}
		if res.String() == "" {
			t.Fatalf("%s: empty rendering", r.name)
		}
		for _, row := range res.Rows {
			if row.NormalizedPower <= 0 || row.NormalizedPower > 2 {
				t.Fatalf("%s %q: implausible power %v", r.name, row.Label, row.NormalizedPower)
			}
		}
	}
}

func TestQuickVsFullOptions(t *testing.T) {
	q, f := Quick(), Full()
	if q.WebSearchDuration >= f.WebSearchDuration {
		t.Fatal("Quick should be shorter")
	}
	if q.VMs >= f.VMs {
		t.Fatal("Quick should be smaller")
	}
}

func TestTableIIExtended(t *testing.T) {
	r, err := TableIIExtended(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 policies", len(r.Rows))
	}
	if r.Rows[0].Label != "BFD" || r.Rows[0].NormalizedPower != 1 {
		t.Fatalf("baseline row = %+v", r.Rows[0])
	}
	for _, row := range r.Rows {
		if row.NormalizedPower <= 0 || row.NormalizedPower > 1.5 {
			t.Fatalf("%s: implausible power %v", row.Label, row.NormalizedPower)
		}
		if row.Migrations < 0 {
			t.Fatalf("%s: negative migrations", row.Label)
		}
	}
	if !strings.Contains(r.String(), "Extended") {
		t.Fatal("String() should label the table")
	}
}

func TestPowerGating(t *testing.T) {
	o := Quick()
	// Tail statistics under rare surges need the full horizon: with too
	// few surge windows the penalty is a coin flip.
	o.WebSearchDuration = Full().WebSearchDuration
	r, err := PowerGating(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 approaches", len(r.Rows))
	}
	full, dvfs, park := r.Rows[0], r.Rows[1], r.Rows[2]
	if park.MeanCores >= 7.9 {
		t.Fatalf("parking never parked: %v cores", park.MeanCores)
	}
	if dvfs.MeanCores != 8 || full.MeanCores != 8 {
		t.Fatal("non-parking approaches must keep all cores online")
	}
	// The Section III-A claim: parking's wake latency inflates the tail
	// far beyond what DVFS at the low level costs.
	for c := 0; c < 2; c++ {
		if park.P99[c] <= dvfs.P99[c] {
			t.Fatalf("cluster %d: parking p99 %v should exceed DVFS %v",
				c, park.P99[c], dvfs.P99[c])
		}
	}
	if r.TailPenaltyPct < 50 {
		t.Fatalf("tail penalty = %v%%, want substantial", r.TailPenaltyPct)
	}
	if !strings.Contains(r.String(), "Section III-A") {
		t.Fatal("String() should label the study")
	}
}
