package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/place"
	"repro/internal/power"
	"repro/internal/predict"
	"repro/internal/server"
	"repro/internal/synth"
	"repro/pkg/dcsim/model"
)

// flatVMs builds n VMs with constant demand level over samples samples.
func flatVMs(n int, level float64, samples int) []*model.VM {
	vms := make([]*model.VM, n)
	for i := range vms {
		data := make([]float64, samples)
		for k := range data {
			data[k] = level
		}
		vms[i] = model.NewVM(string(rune('a'+i)), model.SeriesFromSamples(5*time.Second, data))
	}
	return vms
}

func baseConfig() Config {
	return Config{
		Spec:          server.XeonE5410(),
		Power:         power.XeonE5410(),
		Policy:        place.BFD{},
		Governor:      WorstCase{},
		MaxServers:    20,
		PeriodSamples: 100,
		Pctl:          1,
		Predictor:     predict.LastValue{},
	}
}

func TestRunValidation(t *testing.T) {
	vms := flatVMs(2, 1, 200)
	cases := []func(*Config){
		func(c *Config) { c.Policy = nil },
		func(c *Config) { c.Governor = nil },
		func(c *Config) { c.MaxServers = 0 },
		func(c *Config) { c.PeriodSamples = 0 },
		func(c *Config) { c.RescaleEvery = -1 },
		// An interval of the period or more never rescales.
		func(c *Config) { c.RescaleEvery = c.PeriodSamples },
		func(c *Config) { c.RescaleEvery = c.PeriodSamples + 30 },
		func(c *Config) { c.RescaleEvery = math.MaxInt },
		func(c *Config) { c.PeriodSamples, c.RescaleEvery = 40, block+36 },
		func(c *Config) { c.Predictor = nil },
		func(c *Config) { c.Spec = model.ServerSpec{} },
		func(c *Config) { c.Power = model.PowerModel{} },
		func(c *Config) { c.Matrix = core.NewCostMatrix(7, 1) },
		func(c *Config) { c.Spec = model.ServerSpec{Name: "odd", Cores: 8, Freqs: []float64{1.0}} },
	}
	for i, mutate := range cases {
		cfg := baseConfig()
		mutate(&cfg)
		if _, err := Run(vms, cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	if _, err := Run(nil, baseConfig()); err == nil {
		t.Error("no VMs should error")
	}
	short := flatVMs(2, 1, 10)
	if _, err := Run(short, baseConfig()); err == nil {
		t.Error("horizon shorter than a period should error")
	}
}

// fixedPolicy returns the same placement every period, whatever the
// requests — the shape an out-of-tree policy is free to produce.
type fixedPolicy struct{ p model.Placement }

func (fixedPolicy) Name() string { return "fixed" }

func (f fixedPolicy) Place([]model.Request, model.ServerSpec, int) (*model.Placement, error) {
	p := f.p
	p.Assign = append([]int(nil), f.p.Assign...)
	return &p, nil
}

// TestRunRejectsMisshapenPlacement: Run checks a placement's shape against
// the run, not only each entry against the placement's own NumServers. A
// short Assign would leave VMs unplaced and uncharged, a long one indexes
// past the VM list, and servers beyond MaxServers escape the residency
// table while still drawing power.
func TestRunRejectsMisshapenPlacement(t *testing.T) {
	vms := flatVMs(4, 1, 24)
	cases := []struct {
		name    string
		p       model.Placement
		wantErr string // empty: the run must succeed
	}{
		{"valid", model.Placement{NumServers: 2, Assign: []int{0, 0, 1, 1}}, ""},
		{"short assign", model.Placement{NumServers: 2, Assign: []int{0, 1}}, "assigned 2 VMs, run has 4"},
		{"long assign", model.Placement{NumServers: 2, Assign: []int{0, 0, 1, 1, 0}}, "assigned 5 VMs, run has 4"},
		{"too many servers", model.Placement{NumServers: 4, Assign: []int{0, 1, 2, 3}}, "opened 4 servers, MaxServers is 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := baseConfig()
			cfg.Policy = fixedPolicy{c.p}
			cfg.MaxServers = 2
			cfg.PeriodSamples = 12
			res, err := Run(vms, cfg)
			if c.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Periods) != 2 || res.MeanActive != 2 {
					t.Fatalf("periods = %d, mean active = %v; want 2 and 2", len(res.Periods), res.MeanActive)
				}
				return
			}
			if err == nil {
				t.Fatalf("placement %+v accepted; want error %q", c.p, c.wantErr)
			}
			for _, want := range []string{"sim: period 0", `policy "fixed"`, c.wantErr} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("err = %v, want it to contain %q", err, want)
				}
			}
		})
	}
}

func TestRunFlatWorkloadNoViolations(t *testing.T) {
	// Four VMs of 1.5 cores: fits easily, no violations, stable servers.
	vms := flatVMs(4, 1.5, 300)
	cfg := baseConfig()
	res, err := Run(vms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxViolationPct != 0 {
		t.Fatalf("flat workload produced violations: %v%%", res.MaxViolationPct)
	}
	if res.MeanActive != 1 {
		t.Fatalf("6 cores of demand should fit one server, got %v active", res.MeanActive)
	}
	if res.EnergyJ <= 0 || res.MeanPowerW <= 0 {
		t.Fatalf("energy accounting broken: E=%v P=%v", res.EnergyJ, res.MeanPowerW)
	}
	if len(res.Periods) != 3 {
		t.Fatalf("periods = %d, want 3", len(res.Periods))
	}
}

func TestRunOverloadProducesViolations(t *testing.T) {
	// One server, demand pinned above capacity: every sample violates.
	vms := flatVMs(3, 4, 200) // 12 cores of demand
	cfg := baseConfig()
	cfg.MaxServers = 1
	res, err := Run(vms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MaxViolationPct-100) > 1e-9 {
		t.Fatalf("violations = %v%%, want 100%%", res.MaxViolationPct)
	}
}

func TestWorstCaseGovernorPicksCoveringLevel(t *testing.T) {
	spec := server.XeonE5410()
	g := WorstCase{}
	p := &model.Placement{NumServers: 1, Assign: []int{0, 0}}
	// 5 cores of predicted peaks: 2.0 GHz gives 6.96 cores, enough.
	fs := g.PlanStatic(p, []float64{2.5, 2.5}, spec)
	if fs[0] != 2.0 {
		t.Fatalf("level = %v, want 2.0", fs[0])
	}
	// 7.5 cores needs 2.3.
	fs = g.PlanStatic(p, []float64{4, 3.5}, spec)
	if fs[0] != 2.3 {
		t.Fatalf("level = %v, want 2.3", fs[0])
	}
	if f := g.Rescale([]int{0, 1}, []float64{1, 1}, 2, spec); f != 2.0 {
		t.Fatalf("rescale level = %v, want 2.0", f)
	}
}

func TestCorrAwareGovernorDiscountsFrequency(t *testing.T) {
	spec := server.XeonE5410()
	m := core.NewCostMatrix(2, 1)
	// Anti-phased feeding: pair cost ≈ (4+4)/4.6 > 1.5.
	for k := 0; k < 200; k++ {
		if k%2 == 0 {
			m.Add([]float64{4, 0.6})
		} else {
			m.Add([]float64{0.6, 4})
		}
	}
	g := CorrAware{Matrix: m}
	p := &model.Placement{NumServers: 1, Assign: []int{0, 0}}
	fs := g.PlanStatic(p, []float64{4, 4}, spec)
	if fs[0] != 2.0 {
		t.Fatalf("anti-correlated full server should run at 2.0, got %v", fs[0])
	}
	wc := WorstCase{}.PlanStatic(p, []float64{4, 4}, spec)
	if wc[0] != 2.3 {
		t.Fatalf("worst case should be 2.3, got %v", wc[0])
	}
}

func TestDynamicRescalingTracksLoad(t *testing.T) {
	// Demand alternates between low (first half of each period) and high:
	// with dynamic scaling the server should spend time at both levels.
	samples := 400
	data := make([]float64, samples)
	for k := range data {
		if (k/50)%2 == 0 {
			data[k] = 2
		} else {
			data[k] = 7.5
		}
	}
	vms := []*model.VM{model.NewVM("vm", model.SeriesFromSamples(5*time.Second, data))}
	cfg := baseConfig()
	cfg.PeriodSamples = 200
	cfg.RescaleEvery = 10
	res, err := Run(vms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := res.FreqResidency[0][0], res.FreqResidency[0][1]
	if lo == 0 || hi == 0 {
		t.Fatalf("dynamic scaling should visit both levels: lo=%d hi=%d", lo, hi)
	}
}

func TestFreqResidencyAccounting(t *testing.T) {
	vms := flatVMs(2, 1, 200)
	res, err := Run(vms, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, perLevel := range res.FreqResidency {
		for _, c := range perLevel {
			total += c
		}
	}
	// One active server for 200 samples.
	if total != 200 {
		t.Fatalf("freq residency total = %d, want 200", total)
	}
}

func TestNormalizedPower(t *testing.T) {
	vms := flatVMs(2, 1, 200)
	a, err := Run(vms, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := a.NormalizedPower(a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("self-normalized power = %v, want 1", got)
	}
	zero := &model.Result{}
	if got := a.NormalizedPower(zero); got != 0 {
		t.Fatalf("normalization against zero baseline = %v, want 0", got)
	}
}

func TestEndToEndPoliciesOnSyntheticTraces(t *testing.T) {
	// Smoke test of all three policies on a small synthetic dataset,
	// checking the paper's headline ordering on violations: the proposed
	// policy must not violate more than BFD.
	cfg := synth.DefaultDatacenterConfig()
	cfg.VMs = 16
	cfg.Groups = 4
	cfg.Day = 6 * time.Hour
	ds := synth.Datacenter(cfg)
	vms := model.VMsFromSeries(ds.Names, ds.Fine)

	run := func(policy model.Policy, gov model.Governor, matrix model.CostSource) *model.Result {
		c := baseConfig()
		c.Policy = policy
		c.Governor = gov
		c.MaxServers = 10
		c.PeriodSamples = 720
		c.Matrix = matrix
		res, err := Run(vms, c)
		if err != nil {
			t.Fatalf("%s: %v", policy.Name(), err)
		}
		return res
	}

	bfd := run(place.BFD{}, WorstCase{}, nil)
	m := core.NewCostMatrix(len(vms), 1)
	prop := run(&core.Allocator{Config: core.DefaultConfig(), Cost: m.Cost}, CorrAware{Matrix: m}, m)

	// Violations on this small scenario are near zero for both policies;
	// allow a one-sample-scale tolerance (0.5pp of a 720-sample period).
	if prop.MaxViolationPct > bfd.MaxViolationPct+0.5 {
		t.Fatalf("proposed violations %v%% exceed BFD %v%%",
			prop.MaxViolationPct, bfd.MaxViolationPct)
	}
	if prop.EnergyJ > bfd.EnergyJ*1.02 {
		t.Fatalf("proposed energy %v noticeably exceeds BFD %v", prop.EnergyJ, bfd.EnergyJ)
	}
}

// TestRunOffPctlOutsideRangeIsDefault: an off-peak percentile outside
// (0, 1), NaN included, runs PCP at the 0.9 default instead of reaching
// Series.Percentile, which has no rank for NaN.
func TestRunOffPctlOutsideRangeIsDefault(t *testing.T) {
	cfg := synth.DefaultDatacenterConfig()
	cfg.VMs = 8
	cfg.Groups = 2
	cfg.Day = 3 * time.Hour
	ds := synth.Datacenter(cfg)
	vms := model.VMsFromSeries(ds.Names, ds.Fine)
	run := func(off float64) *model.Result {
		c := baseConfig()
		c.Policy = place.PCP{}
		c.PeriodSamples = 720
		c.OffPctl = off
		res, err := Run(vms, c)
		if err != nil {
			t.Fatalf("OffPctl %v: %v", off, err)
		}
		return res
	}
	want := run(0.9)
	for _, off := range []float64{0, -1, 1.5, math.NaN()} {
		if got := run(off); !reflect.DeepEqual(got, want) {
			t.Errorf("OffPctl %v: result differs from the 0.9 default", off)
		}
	}
}
