package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/pkg/dcsim"
)

// smallRun is a real result to break in the checker tests.
func smallRun(t *testing.T) (*dcsim.Result, dcsim.Scenario) {
	t.Helper()
	w, err := lookupWorkload("tableii-40")
	if err != nil {
		t.Fatal(err)
	}
	scs, err := w.quickSize().scenarios(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc := scs[3] // corr-aware, rescaled: every result field is populated
	res, err := dcsim.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	return res, sc
}

func TestCheckResultRejectsBrokenResults(t *testing.T) {
	res, sc := smallRun(t)
	if err := checkResult(res, sc); err != nil {
		t.Fatalf("intact result rejected: %v", err)
	}
	clone := func() *dcsim.Result {
		c := *res
		c.Periods = append([]dcsim.Period(nil), res.Periods...)
		c.FreqResidency = make([][]int, len(res.FreqResidency))
		for s, levels := range res.FreqResidency {
			c.FreqResidency[s] = append([]int(nil), levels...)
		}
		return &c
	}
	for _, tc := range []struct {
		name   string
		break_ func(*dcsim.Result)
		want   string
	}{
		{"energy", func(r *dcsim.Result) { r.EnergyJ *= 1.001 }, "energy"},
		{"period energy", func(r *dcsim.Result) { r.Periods[0].EnergyJ++ }, "energy"},
		{"nan energy", func(r *dcsim.Result) { r.EnergyJ = math.NaN() }, "energy"},
		{"migrations", func(r *dcsim.Result) { r.TotalMigrations++ }, "migrations"},
		{"missing period", func(r *dcsim.Result) { r.Periods = r.Periods[1:] }, "periods"},
		{"residency", func(r *dcsim.Result) { r.FreqResidency[0][0]++ }, "residency"},
		{"active servers", func(r *dcsim.Result) { r.Periods[1].ActiveServers++ }, "residency"},
	} {
		broken := clone()
		tc.break_(broken)
		err := checkResult(broken, sc)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error about %s", tc.name, err, tc.want)
		}
		if digest(broken) == digest(res) {
			t.Errorf("%s: digest did not change", tc.name)
		}
	}
	if err := checkResult(nil, sc); err == nil {
		t.Error("nil result accepted")
	}
}

// TestIterateCountsFailures feeds the iteration loop runs that error, break
// an invariant, and drift from the reference digest.
func TestIterateCountsFailures(t *testing.T) {
	res, sc := smallRun(t)
	scs := []dcsim.Scenario{sc, sc, sc, sc}
	broken := *res
	broken.TotalMigrations++
	drifted := *res
	drifted.Periods = append([]dcsim.Period(nil), res.Periods...)
	drifted.Periods[0].Migrations++
	drifted.TotalMigrations++
	results := []*dcsim.Result{res, &broken, nil, &drifted}
	i := 0
	run := func(context.Context, dcsim.Scenario) (*dcsim.Result, error) {
		r := results[i]
		i++
		if r == nil {
			return nil, os.ErrInvalid
		}
		return r, nil
	}
	want := digest(res)
	rec := &record{Samples: map[string][]float64{}}
	rec.iterate(context.Background(), scs, []string{want, want, want, want}, run)
	if rec.Attempted != 4 || rec.Failed != 3 {
		t.Fatalf("attempted %d failed %d, want 4 and 3: %v", rec.Attempted, rec.Failed, rec.Failures)
	}
}

// TestTracedCompositionMatchesRun guards the traced composition against
// drifting from dcsim.Run's wiring: same results, the matrix fed exactly
// when a component asked for it, and spans that tile the run.
func TestTracedCompositionMatchesRun(t *testing.T) {
	w, err := lookupWorkload("tableii-40")
	if err != nil {
		t.Fatal(err)
	}
	w.hours = 3
	scs, err := w.scenarios(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		name := sc.Policy + "/" + sc.Governor
		if sc.RescaleEvery > 0 {
			name += "/dynamic"
		}
		want, err := dcsim.Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		tr := &tracer{}
		got, err := runTraced(context.Background(), sc, tr)
		if err != nil {
			t.Fatal(err)
		}
		if digest(got) != digest(want) {
			t.Errorf("%s: traced digest %s, dcsim.Run %s", name, digest(got), digest(want))
		}
		adds := tr.calls[spMatrixAdd]
		if corr := sc.Policy == "corr-aware"; corr != (adds > 0) {
			t.Errorf("%s: %d matrix.add calls", name, adds)
		}
		total := 0.0
		for _, d := range tr.self {
			total += d.Seconds()
		}
		if cov := total / tr.wall.Seconds(); cov < 0.95 || cov > 1.0001 {
			t.Errorf("%s: trace coverage %.4f", name, cov)
		}
	}
}

// TestQuickSmoke runs every workload at toy size, untraced and traced, and
// checks that each reports exactly the metrics BENCHMARK.json names.
func TestQuickSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []benchmarkMetric `json:"end_to_end"`
		PerLayer  []benchmarkMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(def.Workloads), len(workloads))
	}
	for _, pass := range []struct {
		trace bool
		defs  []benchmarkMetric
		specs map[string]metricSpec
	}{{false, def.EndToEnd, endToEnd}, {true, def.PerLayer, perLayer}} {
		if len(pass.defs) != len(pass.specs) {
			t.Errorf("trace %v: BENCHMARK.json lists %d metrics, the benchmark reports %d", pass.trace, len(pass.defs), len(pass.specs))
		}
		for _, d := range pass.defs {
			if s, ok := pass.specs[d.Name]; !ok || s.unit != d.Unit || s.better != d.Better {
				t.Errorf("metric %s: BENCHMARK.json says %s/%s, the benchmark %+v", d.Name, d.Unit, d.Better, s)
			}
		}
		for _, w := range def.Workloads {
			rec, err := runWorkload(context.Background(), options{
				workload: w.Name, seed: 1, trace: pass.trace, quick: true, workdir: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s: %d of %d runs failed: %v", w.Name, rec.Failed, rec.Attempted, rec.Failures)
			}
			for _, d := range pass.defs {
				if len(rec.Samples[d.Name]) == 0 {
					t.Errorf("%s trace %v: no samples of %s", w.Name, pass.trace, d.Name)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q := quartiles(xs); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles %v", q)
	}
	if q := quartiles([]float64{4}); q != [3]float64{4, 4, 4} {
		t.Errorf("single sample quartiles %v", q)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same", base, scaled(1.03), "lower", 0.10, "same"},
		{"worse", base, scaled(1.2), "lower", 0.10, "worse"},
		{"better", base, scaled(0.8), "lower", 0.10, "better"},
		{"higher is better", base, scaled(0.8), "higher", 0.10, "worse"},
		{"spread beyond bound", base, scaled(1.0), "lower", 0.005, "unresolved"},
		{"every sample better", base, scaled(0.5), "lower", 0.005, "better"},
		{"exact metric moved", []float64{5, 5}, []float64{5.0001, 5.0001}, "lower", 0.10, "worse"},
		{"exact metric held", []float64{5, 5}, []float64{5, 5}, "lower", 0.10, "same"},
	} {
		if got := verdict(tc.a, tc.b, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestExactVerdict(t *testing.T) {
	a := map[int64]string{1: "10", 2: "20", 3: "30"}
	for _, tc := range []struct {
		name   string
		b      map[int64]string
		better string
		want   string
	}{
		{"equal", map[int64]string{1: "10", 2: "20", 4: "99"}, "lower", "same"},
		{"one seed worse", map[int64]string{1: "10", 2: "21", 3: "30"}, "lower", "worse"},
		{"one seed better", map[int64]string{1: "9", 2: "20", 3: "30"}, "lower", "better"},
		{"higher is better", map[int64]string{1: "9", 2: "20", 3: "30"}, "higher", "worse"},
		{"both ways", map[int64]string{1: "9", 2: "21", 3: "30"}, "lower", "changed"},
		{"digests", map[int64]string{1: "ab", 2: "20", 3: "30"}, "", "changed"},
	} {
		if got, _ := exactVerdict(a, tc.b, tc.better); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
