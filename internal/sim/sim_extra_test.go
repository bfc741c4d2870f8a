package sim

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/place"
	"repro/internal/synth"
	"repro/pkg/dcsim/model"
)

func TestMigrationAccounting(t *testing.T) {
	// Two VMs whose size ordering flips between periods: BFD re-sorts
	// and may move them; a stable workload produces zero migrations.
	stable := flatVMs(3, 2, 300)
	res, err := Run(stable, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMigrations != 0 {
		t.Fatalf("stable workload migrated %d times", res.TotalMigrations)
	}
	if res.Periods[0].Migrations != 0 {
		t.Fatal("first period can have no migrations by definition")
	}

	// Flip: vm0 is large in even periods, vm1 in odd ones; with two
	// servers the pair separates and the big one anchors server 0 —
	// so the labels swap across periods and migrations are counted.
	mk := func(phase int) *model.VM {
		data := make([]float64, 300)
		for k := range data {
			if (k/100)%2 == phase {
				data[k] = 6
			} else {
				data[k] = 3
			}
		}
		return model.NewVM(string(rune('a'+phase)), model.SeriesFromSamples(5*time.Second, data))
	}
	flip := []*model.VM{mk(0), mk(1)}
	res, err = Run(flip, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMigrations == 0 {
		t.Fatal("alternating sizes should force placement churn")
	}
	sum := 0
	for _, p := range res.Periods {
		sum += p.Migrations
	}
	if sum != res.TotalMigrations {
		t.Fatalf("per-period migrations (%d) disagree with total (%d)", sum, res.TotalMigrations)
	}
}

func TestOracleModeReducesViolations(t *testing.T) {
	cfg := synth.DefaultDatacenterConfig()
	cfg.VMs = 16
	cfg.Groups = 4
	cfg.Day = 8 * time.Hour
	ds := synth.Datacenter(cfg)
	vms := model.VMsFromSeries(ds.Names, ds.Fine)

	run := func(oracle bool) *model.Result {
		c := baseConfig()
		c.PeriodSamples = 720
		c.MaxServers = 10
		c.Oracle = oracle
		res, err := Run(vms, c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lastValue := run(false)
	oracle := run(true)
	// Perfect knowledge of the coming period's peaks can only help the
	// violation metric (placement covers the true peaks).
	if oracle.MaxViolationPct > lastValue.MaxViolationPct+0.5 {
		t.Fatalf("oracle violations %v%% exceed last-value %v%%",
			oracle.MaxViolationPct, lastValue.MaxViolationPct)
	}
}

func TestJointVMInsideSimulator(t *testing.T) {
	cfg := synth.DefaultDatacenterConfig()
	cfg.VMs = 12
	cfg.Groups = 4
	cfg.Day = 4 * time.Hour
	ds := synth.Datacenter(cfg)
	vms := model.VMsFromSeries(ds.Names, ds.Fine)
	c := baseConfig()
	c.PeriodSamples = 720
	c.MaxServers = 10
	c.Policy = place.JointVM{}
	res, err := Run(vms, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "JointVM" || res.EnergyJ <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
}

func TestCumulativeMatrixRuns(t *testing.T) {
	vms := flatVMs(4, 1.5, 300)
	c := baseConfig()
	m := core.NewCostMatrix(len(vms), 1)
	c.Matrix = m
	c.Policy = &core.Allocator{Config: core.DefaultConfig(), Cost: m.Cost}
	c.Governor = CorrAware{Matrix: m}
	c.CumulativeMatrix = true
	res, err := Run(vms, c)
	if err != nil {
		t.Fatal(err)
	}
	if m.Samples() != 300 {
		t.Fatalf("cumulative matrix holds %d samples, want all 300", m.Samples())
	}
	if res.MaxViolationPct != 0 {
		t.Fatalf("flat workload violated: %v", res.MaxViolationPct)
	}
}

func TestRunRejectsCorruptTraces(t *testing.T) {
	vms := flatVMs(2, 1, 200)
	vms[1].Demand.Samples()[50] = math.NaN()
	if _, err := Run(vms, baseConfig()); err == nil {
		t.Fatal("NaN demand should be rejected")
	}
	vms2 := flatVMs(2, 1, 200)
	vms2[0].Demand.Samples()[0] = -3
	if _, err := Run(vms2, baseConfig()); err == nil {
		t.Fatal("negative demand should be rejected")
	}
}

// TestRunLeavesNoGoroutines: the goroutines a run measures references on
// have all exited once Run returns, whether the run finished or was
// cancelled.
func TestRunLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	vms := diffVMs(t)
	before := runtime.NumGoroutine()
	settled := func(when string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before", when, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Oracle measures every period on goroutines before placing it.
	cfg := baseConfig()
	cfg.PeriodSamples, cfg.RescaleEvery, cfg.Pctl, cfg.Oracle = 150, 12, 0.95, true
	if _, err := Run(vms, cfg); err != nil {
		t.Fatal(err)
	}
	settled("after a finished run")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Ctx = ctx
	seen := 0
	cfg.OnSample = func(model.SampleStats) {
		if seen++; seen == 200 {
			cancel()
		}
	}
	if _, err := Run(vms, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	settled("after a cancelled run")
}
