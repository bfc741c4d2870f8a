package metrics

import (
	"math"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/pkg/dcsim/model"
)

func fakeResult(policy string, energy float64, viol float64, residency [][]int) *model.Result {
	return &model.Result{
		Policy:          policy,
		EnergyJ:         energy,
		MaxViolationPct: viol,
		FreqResidency:   residency,
	}
}

func TestLevelResidency(t *testing.T) {
	spec := server.XeonE5410()
	res := fakeResult("x", 1, 0, [][]int{
		{30, 70},
		{0, 0}, // never active: skipped
		{100, 0},
	})
	shares := LevelResidency(res, spec)
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

func TestSavingsPct(t *testing.T) {
	base := fakeResult("bfd", 1000, 10, nil)
	prop := fakeResult("corr", 870, 2, nil)
	if got := SavingsPct(prop, base); math.Abs(got-13) > 1e-9 {
		t.Fatalf("savings = %v, want 13", got)
	}
	if got := SavingsPct(prop, fakeResult("z", 0, 0, nil)); got != 0 {
		t.Fatalf("zero baseline savings = %v", got)
	}
}

func TestQoSImprovement(t *testing.T) {
	base := fakeResult("bfd", 1000, 18.2, nil)
	prop := fakeResult("corr", 870, 2.6, nil)
	if got := QoSImprovementPP(prop, base); math.Abs(got-15.6) > 1e-9 {
		t.Fatalf("qos improvement = %v, want 15.6", got)
	}
}

func TestTableRows(t *testing.T) {
	if TableRows(nil) != nil {
		t.Fatal("empty input should yield nil")
	}
	rows := TableRows([]*model.Result{
		fakeResult("bfd", 1000, 18, nil),
		fakeResult("corr", 860, 3, nil),
	})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].NormalizedPower != 1 {
		t.Fatalf("baseline normalized power = %v", rows[0].NormalizedPower)
	}
	if math.Abs(rows[1].NormalizedPower-0.86) > 1e-12 {
		t.Fatalf("normalized = %v", rows[1].NormalizedPower)
	}
	if !strings.Contains(rows[1].String(), "corr") {
		t.Fatal("row rendering should include the policy name")
	}
}
