package dcsim

import (
	"context"
	"strings"
	"testing"
)

func TestParamsChangeBehavior(t *testing.T) {
	// A prohibitive THcost forbids all co-location of correlated VMs, so
	// the allocator must spread further than the default run.
	def, err := Run(context.Background(), New(smallOpts()...))
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Run(context.Background(), New(append(smallOpts(), WithParam("thcost", 50))...))
	if err != nil {
		t.Fatal(err)
	}
	if strict.MeanActive < def.MeanActive {
		t.Fatalf("THcost=50 mean active %v below default %v; param not applied",
			strict.MeanActive, def.MeanActive)
	}
}

func TestUnknownParamFails(t *testing.T) {
	sc := New(append(smallOpts(), WithParam("htcost", 1.2))...)
	_, err := Run(context.Background(), sc)
	if err == nil || !strings.Contains(err.Error(), "htcost") {
		t.Fatalf("err = %v, want unread-param failure naming the typo", err)
	}
	// CheckScenario catches the same misconfiguration without running.
	if err := CheckScenario(sc); err == nil || !strings.Contains(err.Error(), "htcost") {
		t.Fatalf("CheckScenario = %v, want unread-param failure", err)
	}
}

func TestParamForWrongComponentFails(t *testing.T) {
	// ewma_alpha belongs to the ewma predictor; with last-value selected
	// nothing reads it, and silently ignoring it would fake an ablation.
	sc := New(append(smallOpts(), WithParam("ewma_alpha", 0.3))...)
	if _, err := Run(context.Background(), sc); err == nil {
		t.Fatal("ewma_alpha with last-value predictor should fail")
	}
	sc = New(append(smallOpts(), WithPredictor("ewma"), WithParam("ewma_alpha", 0.3))...)
	if _, err := Run(context.Background(), sc); err != nil {
		t.Fatalf("ewma_alpha with ewma predictor: %v", err)
	}
}

func TestCountParamRejectsFractions(t *testing.T) {
	// ma_k names a window size; truncating 2.5 to 2 would silently run a
	// different predictor than configured.
	sc := New(append(smallOpts(), WithPredictor("moving-average"), WithParam("ma_k", 2.5))...)
	if _, err := Run(context.Background(), sc); err == nil || !strings.Contains(err.Error(), "ma_k") {
		t.Fatalf("err = %v, want fractional-count rejection", err)
	}
	if err := CheckScenario(sc); err == nil {
		t.Fatal("CheckScenario should reject fractional ma_k without running")
	}
	sc = New(append(smallOpts(), WithPredictor("max-of"), WithParam("maxof_k", 0))...)
	if _, err := Run(context.Background(), sc); err == nil {
		t.Fatal("non-positive count param should fail")
	}
}

func TestAllocBlockParam(t *testing.T) {
	// alloc_block=0 must select exact Fig.-2 evaluation (a valid value,
	// not an error), and fractional or negative blocks must be rejected.
	if _, err := Run(context.Background(), New(append(smallOpts(), WithParam("alloc_block", 0))...)); err != nil {
		t.Fatalf("alloc_block=0 (exact mode): %v", err)
	}
	for _, bad := range []float64{2.5, -1} {
		sc := New(append(smallOpts(), WithParam("alloc_block", bad))...)
		if _, err := Run(context.Background(), sc); err == nil || !strings.Contains(err.Error(), "alloc_block") {
			t.Fatalf("alloc_block=%v: err = %v, want rejection", bad, err)
		}
	}
}

func TestCheckScenarioWorkloadKind(t *testing.T) {
	sc := New(smallOpts()...)
	sc.Workload.Kind = "datacentre"
	if err := CheckScenario(sc); err == nil || !strings.Contains(err.Error(), "datacentre") {
		t.Fatalf("err = %v, want unknown-kind rejection before any run", err)
	}
	sc.Workload.Kind = "uncorrelated"
	if err := CheckScenario(sc); err != nil {
		t.Fatal(err)
	}
}

func TestWithParamCopiesOnWrite(t *testing.T) {
	base := New(append(smallOpts(), WithParam("thcost", 1.15))...)
	derived := base
	derived.SetParam("thcost", 1.4)
	if base.Params["thcost"] != 1.15 {
		t.Fatalf("derived scenario mutated its base: %v", base.Params)
	}
	if derived.Params["thcost"] != 1.4 {
		t.Fatalf("derived params = %v", derived.Params)
	}
}

func TestParseScenarioParams(t *testing.T) {
	sc, err := ParseScenario([]byte(`{"policy": "corr-aware", "params": {"thcost": 1.25, "alpha": 0.8}}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Params["thcost"] != 1.25 || sc.Params["alpha"] != 0.8 {
		t.Fatalf("params = %v", sc.Params)
	}
	if err := CheckScenario(sc); err != nil {
		t.Fatal(err)
	}
	// Non-finite values are rejected structurally.
	if _, err := ParseScenario([]byte(`{"params": {"thcost": 1e999}}`)); err == nil {
		t.Fatal("overflowing param should fail to parse")
	}
}
