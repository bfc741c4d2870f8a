// contract_test exercises the façade exactly as an out-of-tree module
// would: implement the pkg/dcsim/model contracts, register through
// pkg/dcsim, select by name — importing nothing else from this repository.
package dcsim_test

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/dcsim"
	"repro/pkg/dcsim/model"
)

// registrations numbers this file's registrations. The registries are
// process-global and reject duplicates, so each registering test suffixes
// its names to run more than once per process (-count, a -cpu list).
var registrations atomic.Int64

// uniqueName returns name with a suffix no earlier registration used.
func uniqueName(name string) string {
	return fmt.Sprintf("%s-%d", name, registrations.Add(1))
}

// onePerServer places VM i on server i — the simplest possible external
// policy, written against model types alone.
type onePerServer struct{}

func (onePerServer) Name() string { return "one-per-server" }

func (onePerServer) Place(reqs []model.Request, spec model.ServerSpec, maxServers int) (*model.Placement, error) {
	if maxServers < 1 {
		return nil, model.ErrNoServers
	}
	n := len(reqs)
	if n > maxServers {
		n = maxServers
	}
	assign := make([]int, len(reqs))
	for i := range assign {
		assign[i] = i % n
	}
	return &model.Placement{NumServers: n, Assign: assign}, nil
}

// meanOf is an external predictor: the plain mean of the whole history.
type meanOf struct{}

func (meanOf) Name() string { return "mean-of-history" }

func (meanOf) Predict(history []float64) float64 {
	if len(history) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range history {
		sum += v
	}
	return sum / float64(len(history))
}

func TestOutOfTreeComponentsThroughFacade(t *testing.T) {
	var _ model.Policy = onePerServer{}
	var _ model.Predictor = meanOf{}

	policy, predictor := uniqueName("one-per-server-test"), uniqueName("mean-of-history-test")
	dcsim.RegisterPolicy(policy, func(b *dcsim.Build) (model.Policy, error) {
		// External factories get the same Build the built-ins do: the
		// shared cost source and the params contract are available.
		if b.NVMs < 1 {
			t.Errorf("Build.NVMs = %d", b.NVMs)
		}
		return onePerServer{}, nil
	})
	dcsim.RegisterPredictor(predictor, func(*dcsim.Build) (model.Predictor, error) {
		return meanOf{}, nil
	})

	sc := dcsim.New(
		dcsim.WithVMs(8),
		dcsim.WithGroups(2),
		dcsim.WithHours(3),
		dcsim.WithMaxServers(8),
		dcsim.WithPolicy(policy),
		dcsim.WithGovernor("worst-case"),
		dcsim.WithPredictor(predictor),
	)
	res, err := dcsim.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "one-per-server" {
		t.Errorf("ran policy %q, want the external one", res.Policy)
	}
	// One VM per server: every period keeps all 8 servers active.
	if res.MeanActive != 8 {
		t.Errorf("MeanActive = %v, want 8 (one VM per server)", res.MeanActive)
	}
}

func TestExternalGovernorThroughFacade(t *testing.T) {
	// A fixed-top-level governor implemented on model types only.
	governor := uniqueName("always-fmax-test")
	dcsim.RegisterGovernor(governor, func(*dcsim.Build) (model.Governor, error) {
		return fmaxGovernor{}, nil
	})
	sc := dcsim.New(
		dcsim.WithVMs(8),
		dcsim.WithGroups(2),
		dcsim.WithHours(3),
		dcsim.WithMaxServers(4),
		dcsim.WithPolicy("bfd"),
		dcsim.WithGovernor(governor),
	)
	res, err := dcsim.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	// Every active-server sample must sit on the top level: residency on
	// lower levels stays zero.
	for s, counts := range res.FreqResidency {
		for l := 0; l < len(counts)-1; l++ {
			if counts[l] != 0 {
				t.Fatalf("server %d spent %d samples below fmax", s, counts[l])
			}
		}
	}
}

// offPeakProbe is a registered policy's Place checking, before it places,
// that every request's OffPeak and WindowOffPeak are what its factory's
// declaration promises. With NeedOffPeak, WindowOffPeak is the window's
// pctl percentile bit for bit (the window is the period before, or the
// bootstrapped or Oracle period itself), and so is OffPeak where it is
// the measurement rather than a prediction: with last-value, or in a
// measured period. Without, both are 0.
type offPeakProbe struct {
	model.Policy
	t          *testing.T
	at         string // the run's description
	asked      bool
	pctl       float64 // the off-peak percentile the scenario resolves to
	measured   bool    // every period's OffPeak is the window's measurement
	placements int
	checked    *int
}

func (p *offPeakProbe) Place(reqs []model.Request, spec model.ServerSpec, maxServers int) (*model.Placement, error) {
	measured := p.measured || p.placements == 0
	p.placements++
	for i, r := range reqs {
		want := 0.0
		if p.asked {
			want = r.Window.Percentile(p.pctl)
		}
		if math.Float64bits(r.WindowOffPeak) != math.Float64bits(want) {
			p.t.Errorf("%s: request %d has WindowOffPeak %v, want %v", p.at, i, r.WindowOffPeak, want)
		}
		if (measured || !p.asked) && math.Float64bits(r.OffPeak) != math.Float64bits(want) {
			p.t.Errorf("%s: request %d has OffPeak %v, want %v", p.at, i, r.OffPeak, want)
		}
		*p.checked++
	}
	return p.Policy.Place(reqs, spec, maxServers)
}

// recentRefsProbe is a registered governor's Rescale checking that
// recentRefs is what its factory's declaration promises: with
// NeedRecentRefs, each VM's peak over the `every` samples before the one
// the run reaches next; without, zeros.
type recentRefsProbe struct {
	model.Governor
	t       *testing.T
	asked   bool
	fine    []*model.Series // the run's demand, VM by VM
	every   int
	next    *int // one past the last sample an observer saw
	checked *int
}

func (g recentRefsProbe) Rescale(members []int, recentRefs []float64, aggPeak float64, spec model.ServerSpec) float64 {
	if len(recentRefs) != len(g.fine) {
		g.t.Fatalf("asked %v: recentRefs has %d entries for %d VMs", g.asked, len(recentRefs), len(g.fine))
	}
	for i, got := range recentRefs {
		want := 0.0
		if g.asked {
			want = g.fine[i].Slice(*g.next-g.every, *g.next).Max()
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			g.t.Errorf("asked %v: rescale before sample %d gave VM %d %v, want %v", g.asked, *g.next, i, got, want)
		}
	}
	*g.checked++
	return g.Governor.Rescale(members, recentRefs, aggPeak, spec)
}

// TestUndeclaredInputsReadZero pins the inputs a run measures only on
// request: a policy sees the off-peak references only if its factory
// called Build.NeedOffPeak, and a governor sees the rescale references
// only if its factory called Build.NeedRecentRefs. Undeclared, each reads
// as 0, whatever the other component declared. Declared, the off-peak
// over each request's window is the window's own percentile under every
// predictor, off-peak percentile and Oracle setting.
func TestUndeclaredInputsReadZero(t *testing.T) {
	const every = 12
	base := dcsim.New(
		dcsim.WithVMs(8),
		dcsim.WithGroups(2),
		dcsim.WithHours(3),
		dcsim.WithMaxServers(8),
		dcsim.WithRescaleEvery(every),
	)
	ds, err := dcsim.GenerateTraces(base.Workload)
	if err != nil {
		t.Fatal(err)
	}
	for _, policyAsks := range []bool{true, false} {
		for _, governorAsks := range []bool{true, false} {
			for _, predictor := range []string{"last-value", "moving-average", "ewma"} {
				for _, offPctl := range []float64{0, 0.95} {
					for _, oracle := range []bool{false, true} {
						name := fmt.Sprintf("policy asks %v, governor asks %v, %s, off_pctl %v, oracle %v",
							policyAsks, governorAsks, predictor, offPctl, oracle)
						var next, placed, rescaled int
						policy, governor := uniqueName("offpeak-probe"), uniqueName("recentrefs-probe")
						dcsim.RegisterPolicy(policy, func(b *dcsim.Build) (model.Policy, error) {
							if policyAsks {
								b.NeedOffPeak()
							}
							bfd, err := dcsim.NewPolicy("bfd", b)
							pctl := offPctl
							if pctl == 0 {
								pctl = 0.9
							}
							return &offPeakProbe{Policy: bfd, t: t, at: name, asked: policyAsks, pctl: pctl,
								measured: predictor == "last-value" || oracle, checked: &placed}, err
						})
						dcsim.RegisterGovernor(governor, func(b *dcsim.Build) (model.Governor, error) {
							if governorAsks {
								b.NeedRecentRefs()
							}
							wc, err := dcsim.NewGovernor("worst-case", b)
							return recentRefsProbe{Governor: wc, t: t, asked: governorAsks, fine: ds.Fine,
								every: every, next: &next, checked: &rescaled}, err
						})
						sc := base
						sc.Policy, sc.Governor, sc.Predictor = policy, governor, predictor
						sc.OffPctl, sc.Oracle = offPctl, oracle
						clock := dcsim.ObserverFunc(func(s dcsim.Sample) { next = s.K + 1 })
						if _, err := dcsim.Run(context.Background(), sc, clock); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						// Three periods of eight requests; 59 rescales a period
						// for each active server.
						if placed != 3*8 || rescaled < 3*59 {
							t.Fatalf("%s: checked %d requests and %d rescales", name, placed, rescaled)
						}
					}
				}
			}
		}
	}
}

// flatSource is an external workload backend written on model types
// alone: every VM demands a constant half core for the whole horizon.
// Deterministic trivially — it ignores the seed.
type flatSource struct{}

func (flatSource) Check(w model.Workload) error {
	if w.VMs < 1 || w.Hours < 1 {
		return model.ErrNoServers // any error will do; never hit in this test
	}
	return nil
}

func (flatSource) Load(_ context.Context, w model.Workload) (*model.Dataset, error) {
	const perHour = 720 // 5-second samples
	ds := &model.Dataset{}
	for v := 0; v < w.VMs; v++ {
		samples := make([]float64, w.Hours*perHour)
		for i := range samples {
			samples[i] = 0.5
		}
		ds.Names = append(ds.Names, fmt.Sprintf("flat%02d", v))
		ds.Fine = append(ds.Fine, model.SeriesFromSamples(5*time.Second, samples))
	}
	return ds, nil
}

// TestOutOfTreeWorkloadSourceThroughFacade: a workload backend registers
// and runs through the façade alone, end to end — the registry seam
// recorded and object-store trace sources plug into.
func TestOutOfTreeWorkloadSourceThroughFacade(t *testing.T) {
	var _ dcsim.WorkloadSource = flatSource{}
	kind := uniqueName("flat-test")
	dcsim.RegisterWorkload(kind, flatSource{})

	found := false
	for _, k := range dcsim.WorkloadKinds() {
		if k == kind {
			found = true
		}
	}
	if !found {
		t.Fatal("WorkloadKinds() does not list the external registration")
	}

	sc := dcsim.New(
		dcsim.WithWorkloadKind(kind),
		dcsim.WithVMs(6),
		dcsim.WithGroups(1),
		dcsim.WithHours(2),
		dcsim.WithMaxServers(6),
		dcsim.WithPolicy("bfd"),
	)
	res, err := dcsim.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	// Six flat half-core VMs fit comfortably: the run must be violation-
	// free and fully deterministic in shape.
	if res.MaxViolationPct != 0 {
		t.Errorf("flat workload produced %v%% violations", res.MaxViolationPct)
	}
	if len(res.Periods) != 2 {
		t.Errorf("ran %d periods, want 2", len(res.Periods))
	}
}

// nanSource is flatSource with sample 100 of its last VM NaN: an external
// backend that returns a sample no run may read, without checking it.
type nanSource struct{ flatSource }

func (s nanSource) Load(ctx context.Context, w model.Workload) (*model.Dataset, error) {
	ds, err := s.flatSource.Load(ctx, w)
	if err == nil {
		ds.Fine[len(ds.Fine)-1].Samples()[100] = math.NaN()
	}
	return ds, err
}

// TestUnvalidatedSampleFailsTheRun: the simulator validates every sample
// it is handed, whoever made it. Run over a backend that returns a NaN
// sample fails with that sample's error, and so does RunVMs over the same
// VMs.
func TestUnvalidatedSampleFailsTheRun(t *testing.T) {
	ctx := context.Background()
	kind := uniqueName("nan-test")
	dcsim.RegisterWorkload(kind, nanSource{})
	sc := dcsim.New(
		dcsim.WithWorkloadKind(kind),
		dcsim.WithVMs(4),
		dcsim.WithGroups(1),
		dcsim.WithHours(2),
		dcsim.WithMaxServers(4),
		dcsim.WithPolicy("bfd"),
	)
	const want = "sim: flat03: model: sample 100 is not finite"
	if res, err := dcsim.Run(ctx, sc); err == nil || err.Error() != want {
		t.Errorf("Run gave %v, %v; want the error %q", res, err, want)
	}
	ds, err := nanSource{}.Load(ctx, sc.Workload)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := dcsim.RunVMs(ctx, model.VMsFromSeries(ds.Names, ds.Fine), sc); err == nil || err.Error() != want {
		t.Errorf("RunVMs gave %v, %v; want the error %q", res, err, want)
	}
}

// countingSource is flatSource with its Check and Load calls counted, so
// a test can see how often each façade entry point reaches the backend.
type countingSource struct {
	flatSource
	checks, loads atomic.Int64
}

func (c *countingSource) Check(w model.Workload) error {
	c.checks.Add(1)
	return c.flatSource.Check(w)
}

func (c *countingSource) Load(ctx context.Context, w model.Workload) (*model.Dataset, error) {
	c.loads.Add(1)
	return c.flatSource.Load(ctx, w)
}

// TestEveryIngestOpensSourceOnce: an ingest loads its source exactly once
// and makes no separate Check (Load validates on its own), while the
// preflight checks once and loads nothing.
func TestEveryIngestOpensSourceOnce(t *testing.T) {
	src := &countingSource{}
	kind := uniqueName("counting-test")
	dcsim.RegisterWorkload(kind, src)
	sc := dcsim.New(
		dcsim.WithWorkloadKind(kind),
		dcsim.WithVMs(4),
		dcsim.WithGroups(1),
		dcsim.WithHours(1),
		dcsim.WithMaxServers(4),
		dcsim.WithPolicy("bfd"),
	)
	cases := []struct {
		name          string
		call          func() error
		checks, loads int64
	}{
		{"Run", func() error { _, err := dcsim.Run(context.Background(), sc); return err }, 0, 1},
		{"GenerateTraces", func() error { _, err := dcsim.GenerateTraces(sc.Workload); return err }, 0, 1},
		{"OpenTraces", func() error { _, err := dcsim.OpenTraces(context.Background(), sc.Workload); return err }, 0, 1},
		{"CheckScenario", func() error { return dcsim.CheckScenario(sc) }, 1, 0},
	}
	for _, c := range cases {
		src.checks.Store(0)
		src.loads.Store(0)
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := src.checks.Load(); got != c.checks {
			t.Errorf("%s made %d Check calls, want %d", c.name, got, c.checks)
		}
		if got := src.loads.Load(); got != c.loads {
			t.Errorf("%s made %d Load calls, want %d", c.name, got, c.loads)
		}
	}
}

// brokenSource is flatSource with the dataset its Load returns broken by
// a test: the malformed shapes an out-of-tree backend could return.
type brokenSource struct {
	flatSource
	breakIt func(*model.Dataset) *model.Dataset
}

func (b brokenSource) Load(ctx context.Context, w model.Workload) (*model.Dataset, error) {
	ds, err := b.flatSource.Load(ctx, w)
	if err != nil {
		return nil, err
	}
	return b.breakIt(ds), nil
}

// TestMalformedDatasetRejected: whatever a backend's Load returns, Run and
// GenerateTraces go on only with at least one trace, one name per series
// and no nil series. Anything else is a dcsim: error naming the kind, not
// a panic and not a run over unnamed VMs.
func TestMalformedDatasetRejected(t *testing.T) {
	cases := []struct {
		name    string
		breakIt func(*model.Dataset) *model.Dataset
		want    string
	}{
		{"nil series", func(ds *model.Dataset) *model.Dataset { ds.Fine[1] = nil; return ds }, `produced no series for trace "flat01"`},
		{"fewer names", func(ds *model.Dataset) *model.Dataset { ds.Names = ds.Names[:2]; return ds }, "produced 2 names for 4 traces"},
		{"no traces", func(*model.Dataset) *model.Dataset { return &model.Dataset{} }, "produced no traces"},
		{"nil dataset", func(*model.Dataset) *model.Dataset { return nil }, "produced no traces"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			kind := uniqueName("broken-test")
			dcsim.RegisterWorkload(kind, brokenSource{breakIt: c.breakIt})
			sc := dcsim.New(
				dcsim.WithWorkloadKind(kind),
				dcsim.WithVMs(4),
				dcsim.WithGroups(1),
				dcsim.WithHours(1),
				dcsim.WithMaxServers(4),
				dcsim.WithPolicy("bfd"),
			)
			want := fmt.Sprintf("dcsim: workload kind %q %s", kind, c.want)
			_, runErr := dcsim.Run(context.Background(), sc)
			_, genErr := dcsim.GenerateTraces(sc.Workload)
			for name, err := range map[string]error{"Run": runErr, "GenerateTraces": genErr} {
				if err == nil || err.Error() != want {
					t.Errorf("%s = %v, want %q", name, err, want)
				}
			}
		})
	}
}

type fmaxGovernor struct{}

func (fmaxGovernor) Name() string { return "always-fmax" }

func (fmaxGovernor) PlanStatic(p *model.Placement, refs []float64, spec model.ServerSpec) []float64 {
	out := make([]float64, p.NumServers)
	for i := range out {
		out[i] = spec.FMax()
	}
	return out
}

func (fmaxGovernor) Rescale(members []int, recentRefs []float64, aggPeak float64, spec model.ServerSpec) float64 {
	return spec.FMax()
}
