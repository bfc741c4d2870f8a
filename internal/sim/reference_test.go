package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/place"
	"repro/internal/power"
	"repro/internal/synth"
	"repro/pkg/dcsim/model"
)

// referenceRun is the simulator as it was before the period loop went
// server-major: one pass over every VM per sample, re-summing each
// server's members for every rescale peak, and Power per server-sample.
// It is kept only as the tests' reference; Run must match it bit for bit.
// It honours SkipOffPeak and SkipRecentRefs as the contract states them:
// every OffPeak and WindowOffPeak is 0, and recentRefs is zero. Measured,
// each WindowOffPeak is selected afresh from the request's window.
func referenceRun(vms []*model.VM, cfg Config) (*model.Result, error) {
	if len(vms) == 0 {
		return nil, errors.New("sim: no VMs")
	}
	if err := cfg.validate(len(vms)); err != nil {
		return nil, err
	}
	n := vms[0].Demand.Len()
	interval := vms[0].Demand.Interval()
	for _, v := range vms {
		if v.Demand.Interval() != interval {
			return nil, fmt.Errorf("sim: %s interval %v differs from %v", v.ID, v.Demand.Interval(), interval)
		}
		if err := v.Demand.Validate(); err != nil {
			return nil, fmt.Errorf("sim: %s: %w", v.ID, err)
		}
		if v.Demand.Len() < n {
			n = v.Demand.Len()
		}
	}
	periods := n / cfg.PeriodSamples
	if periods == 0 {
		return nil, fmt.Errorf("sim: horizon %d samples shorter than one period (%d)", n, cfg.PeriodSamples)
	}
	offPctl := cfg.OffPctl
	if !(offPctl > 0 && offPctl < 1) { // also catches NaN
		offPctl = 0.9
	}

	res := &model.Result{
		Policy:        cfg.Policy.Name(),
		Governor:      cfg.Governor.Name(),
		Dynamic:       cfg.RescaleEvery > 0,
		FreqResidency: make([][]int, cfg.MaxServers),
	}
	for s := range res.FreqResidency {
		res.FreqResidency[s] = make([]int, len(cfg.Spec.Freqs))
	}

	refHist := make([][]float64, len(vms))  // per-VM per-period û history
	offHist := make([][]float64, len(vms))  // per-VM per-period off-peak history
	sample := make([]float64, len(vms))     // scratch: demand at one instant
	recentRefs := make([]float64, len(vms)) // scratch: per-VM recent-window û
	// Residency accumulates in a per-period scratch merged at each period
	// boundary, so a cancelled run's partial Result never counts samples
	// from the aborted period that EnergyJ/Periods exclude.
	periodResidency := make([][]int, cfg.MaxServers)
	for s := range periodResidency {
		periodResidency[s] = make([]int, len(cfg.Spec.Freqs))
	}
	var prevAssign []int // previous period's placement

	totalSamples := 0
	sumActive := 0
	sumPeriodMaxViol := 0.0

	// finalize computes the run-level aggregates from whatever periods
	// completed, so a cancelled run still yields a coherent partial Result.
	finalize := func() {
		if totalSamples > 0 {
			res.MeanPowerW = res.EnergyJ / (float64(totalSamples) * interval.Seconds())
		}
		if len(res.Periods) > 0 {
			res.MeanViolationPct = sumPeriodMaxViol / float64(len(res.Periods))
			res.MeanActive = float64(sumActive) / float64(len(res.Periods))
		}
	}

	for p := 0; p < periods; p++ {
		start := p * cfg.PeriodSamples
		end := start + cfg.PeriodSamples

		// UPDATE phase: predict next-period references. The first
		// period has no history; bootstrap with its own measured
		// references (identically for every policy, so comparisons
		// stay fair).
		reqs := make([]model.Request, len(vms))
		refs := make([]float64, len(vms))
		measured := p == 0 || cfg.Oracle
		for i, v := range vms {
			var ref, off float64
			var winFrom, winTo int
			if measured {
				// Oracle bootstrap: measure the period itself (always
				// done for the first period, for every policy alike).
				// The measurement is also the period's history entry;
				// nothing reads the history before the period ends.
				winFrom, winTo = start, end
				ref = v.RefOver(winFrom, winTo, cfg.Pctl)
				refHist[i] = append(refHist[i], ref)
				if !cfg.SkipOffPeak {
					off = v.RefOver(winFrom, winTo, offPctl)
					offHist[i] = append(offHist[i], off)
				}
			} else {
				winFrom, winTo = start-cfg.PeriodSamples, start
				ref = cfg.Predictor.Predict(refHist[i])
				if !cfg.SkipOffPeak {
					off = cfg.Predictor.Predict(offHist[i])
				}
			}
			refs[i] = ref
			reqs[i] = model.Request{
				ID:      v.ID,
				Ref:     ref,
				OffPeak: off,
				Window:  v.Demand.Slice(winFrom, winTo),
			}
			if !cfg.SkipOffPeak {
				reqs[i].WindowOffPeak = reqs[i].Window.Percentile(offPctl)
			}
		}

		// Bootstrap the streaming matrix for the first placement so the
		// correlation-aware policy is not blind at p=0 (every policy
		// sees the same bootstrap data via Request.Window).
		if cfg.Matrix != nil && p == 0 {
			referenceFeed(cfg.Matrix, vms, sample, start, end)
		}

		placement, err := cfg.Policy.Place(reqs, cfg.Spec, cfg.MaxServers)
		if err != nil {
			return nil, fmt.Errorf("sim: period %d placement: %w", p, err)
		}
		if err := placement.Validate(); err != nil {
			return nil, fmt.Errorf("sim: period %d: %w", p, err)
		}
		// Validate checks entries only against the placement's own
		// NumServers; the shape must also match the run, or VMs go
		// unplaced (and uncharged), indexing runs past the VM list, or
		// servers escape the MaxServers-row residency table.
		if len(placement.Assign) != len(vms) {
			return nil, fmt.Errorf("sim: period %d: policy %q assigned %d VMs, run has %d",
				p, cfg.Policy.Name(), len(placement.Assign), len(vms))
		}
		if placement.NumServers > cfg.MaxServers {
			return nil, fmt.Errorf("sim: period %d: policy %q opened %d servers, MaxServers is %d",
				p, cfg.Policy.Name(), placement.NumServers, cfg.MaxServers)
		}
		freqs := cfg.Governor.PlanStatic(placement, refs, cfg.Spec)
		// Reset the monitoring window per period; in cumulative mode only
		// the period-0 bootstrap feed is dropped (it would double-count
		// the first period otherwise).
		if cfg.Matrix != nil && (!cfg.CumulativeMatrix || p == 0) {
			cfg.Matrix.Reset()
		}

		membersOf := make([][]int, placement.NumServers)
		for s := range membersOf {
			membersOf[s] = placement.VMsOn(s)
		}

		migrations := 0
		if prevAssign != nil {
			for i, s := range placement.Assign {
				if prevAssign[i] != s {
					migrations++
				}
			}
		}
		prevAssign = append(prevAssign[:0], placement.Assign...)

		// Per-period accounting.
		violSamples := make([]int, placement.NumServers)
		for s := range periodResidency {
			for l := range periodResidency[s] {
				periodResidency[s][l] = 0
			}
		}
		periodEnergy := 0.0
		active := 0
		for _, ms := range membersOf {
			if len(ms) > 0 {
				active++
			}
		}

		for k := start; k < end; k++ {
			if cfg.Ctx != nil {
				if err := cfg.Ctx.Err(); err != nil {
					finalize()
					return res, err
				}
			}
			// Dynamic v/f scaling on the rescale boundary.
			if cfg.RescaleEvery > 0 && k > start && (k-start)%cfg.RescaleEvery == 0 {
				from := k - cfg.RescaleEvery
				if !cfg.SkipRecentRefs { // otherwise recentRefs stays zero
					for i, v := range vms {
						recentRefs[i] = v.RefOver(from, k, cfg.Pctl)
					}
				}
				for s, ms := range membersOf {
					if len(ms) == 0 {
						continue
					}
					aggPeak := 0.0
					for t := from; t < k; t++ {
						d := 0.0
						for _, vi := range ms {
							d += vms[vi].Demand.At(t)
						}
						if d > aggPeak {
							aggPeak = d
						}
					}
					freqs[s] = cfg.Governor.Rescale(ms, recentRefs, aggPeak, cfg.Spec)
				}
			}
			for i, v := range vms {
				sample[i] = v.Demand.At(k)
			}
			samplePower := 0.0
			sampleViol := 0
			for s, ms := range membersOf {
				if len(ms) == 0 {
					continue // consolidated off: no power, no violations
				}
				demand := 0.0
				for _, vi := range ms {
					demand += sample[vi]
				}
				capF := cfg.Spec.CapacityAt(freqs[s])
				if demand > capF+1e-9 {
					violSamples[s]++
					sampleViol++
				}
				u := demand / capF
				pw, err := cfg.Power.Power(u, freqs[s])
				if err != nil {
					return nil, fmt.Errorf("sim: period %d server %d: %w", p, s, err)
				}
				samplePower += pw
				if li := cfg.Spec.LevelIndex(freqs[s]); li >= 0 {
					periodResidency[s][li]++
				}
			}
			periodEnergy += samplePower * interval.Seconds()
			if cfg.Matrix != nil {
				cfg.Matrix.Add(sample)
			}
			if cfg.OnSample != nil {
				cfg.OnSample(model.SampleStats{
					K:             k,
					Period:        p,
					ActiveServers: active,
					PowerW:        samplePower,
					Violations:    sampleViol,
				})
			}
		}

		for s := range periodResidency {
			for l, c := range periodResidency[s] {
				res.FreqResidency[s][l] += c
			}
		}
		maxViol := 0.0
		for s := range violSamples {
			if len(membersOf[s]) == 0 {
				continue
			}
			v := 100 * float64(violSamples[s]) / float64(cfg.PeriodSamples)
			if v > maxViol {
				maxViol = v
			}
		}
		ps := model.PeriodStats{
			Period:          p,
			ActiveServers:   active,
			EnergyJ:         periodEnergy,
			MaxViolationPct: maxViol,
			Migrations:      migrations,
		}
		res.Periods = append(res.Periods, ps)
		if cfg.OnPeriod != nil {
			cfg.OnPeriod(ps)
		}
		// Accumulated here, not at placement time, so a cancelled run's
		// TotalMigrations matches the sum over the completed Periods.
		res.TotalMigrations += migrations
		res.EnergyJ += periodEnergy
		if maxViol > res.MaxViolationPct {
			res.MaxViolationPct = maxViol
		}
		sumPeriodMaxViol += maxViol
		sumActive += active
		totalSamples += cfg.PeriodSamples

		// Record measured references as history for the next period
		// (a bootstrapped period recorded them when it measured them).
		if !measured {
			for i, v := range vms {
				refHist[i] = append(refHist[i], v.RefOver(start, end, cfg.Pctl))
				if !cfg.SkipOffPeak {
					offHist[i] = append(offHist[i], v.RefOver(start, end, offPctl))
				}
			}
		}
	}

	finalize()
	return res, nil
}

func referenceFeed(m model.CostSource, vms []*model.VM, scratch []float64, from, to int) {
	for k := from; k < to; k++ {
		for i, v := range vms {
			scratch[i] = v.Demand.At(k)
		}
		m.Add(scratch)
	}
}

// runRecord is everything a caller of one run can see: every OnSample and
// OnPeriod in order, what each Place and Rescale call was given and the
// cost matrix it could read, the Result and the error. recordRun keeps
// calling a cfg.OnSample that is already set.
type runRecord struct {
	samples []model.SampleStats
	periods []model.PeriodStats
	calls   []string
	res     *model.Result
	result  string // %+v prints each float in its shortest exact form, −0 included
	err     string
}

// matrixSeen describes what a component reading m sees: how many samples
// it holds and, as bits, the cost of its first and last VMs.
func matrixSeen(m model.CostSource) string {
	if m == nil || m.N() < 2 {
		return "no matrix"
	}
	return fmt.Sprintf("matrix %d samples cost %x", m.Samples(), math.Float64bits(m.Cost(0, m.N()-1)))
}

// recordingPolicy logs each Place call with the matrix it could read, and
// then asks the policy it wraps.
type recordingPolicy struct {
	model.Policy
	matrix model.CostSource
	log    *[]string
}

func (p recordingPolicy) Place(reqs []model.Request, spec model.ServerSpec, maxServers int) (*model.Placement, error) {
	*p.log = append(*p.log, "place: "+matrixSeen(p.matrix))
	return p.Policy.Place(reqs, spec, maxServers)
}

// recordingGovernor logs each Rescale call's arguments, every float as its
// bits, and the matrix it could read, and then asks the governor it wraps.
type recordingGovernor struct {
	model.Governor
	matrix model.CostSource
	log    *[]string
}

func (g recordingGovernor) Rescale(members []int, recentRefs []float64, aggPeak float64, spec model.ServerSpec) float64 {
	bits := make([]uint64, len(recentRefs))
	for i, r := range recentRefs {
		bits[i] = math.Float64bits(r)
	}
	*g.log = append(*g.log, fmt.Sprintf("rescale: members %v refs %x peak %x %s",
		members, bits, math.Float64bits(aggPeak), matrixSeen(g.matrix)))
	return g.Governor.Rescale(members, recentRefs, aggPeak, spec)
}

func recordRun(run func([]*model.VM, Config) (*model.Result, error), vms []*model.VM, cfg Config) runRecord {
	var r runRecord
	cfg.Policy = recordingPolicy{Policy: cfg.Policy, matrix: cfg.Matrix, log: &r.calls}
	cfg.Governor = recordingGovernor{Governor: cfg.Governor, matrix: cfg.Matrix, log: &r.calls}
	next := cfg.OnSample
	cfg.OnSample = func(s model.SampleStats) {
		r.samples = append(r.samples, s)
		if next != nil {
			next(s)
		}
	}
	cfg.OnPeriod = func(p model.PeriodStats) { r.periods = append(r.periods, p) }
	res, err := run(vms, cfg)
	r.res, r.result, r.err = res, fmt.Sprintf("%+v", res), fmt.Sprint(err)
	return r
}

// diffRecords describes the first difference between two records, bit
// for bit, or returns "" when there is none.
func diffRecords(got, want runRecord) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range min(len(got.samples), len(want.samples)) {
		g, w := got.samples[i], want.samples[i]
		if g.K != w.K || g.Period != w.Period || g.ActiveServers != w.ActiveServers ||
			!same(g.PowerW, w.PowerW) || g.Violations != w.Violations {
			return fmt.Sprintf("sample %d is %+v, want %+v", i, g, w)
		}
	}
	if len(got.samples) != len(want.samples) {
		return fmt.Sprintf("%d samples reported, want %d", len(got.samples), len(want.samples))
	}
	for i := range min(len(got.calls), len(want.calls)) {
		if got.calls[i] != want.calls[i] {
			return fmt.Sprintf("component call %d got %s, want %s", i, got.calls[i], want.calls[i])
		}
	}
	if len(got.calls) != len(want.calls) {
		return fmt.Sprintf("%d component calls, want %d", len(got.calls), len(want.calls))
	}
	for i := range min(len(got.periods), len(want.periods)) {
		g, w := got.periods[i], want.periods[i]
		if g.Period != w.Period || g.ActiveServers != w.ActiveServers || !same(g.EnergyJ, w.EnergyJ) ||
			!same(g.MaxViolationPct, w.MaxViolationPct) || g.Migrations != w.Migrations {
			return fmt.Sprintf("period %d is %+v, want %+v", i, g, w)
		}
	}
	if len(got.periods) != len(want.periods) {
		return fmt.Sprintf("%d periods reported, want %d", len(got.periods), len(want.periods))
	}
	if got.result != want.result {
		return fmt.Sprintf("result\n got  %s\n want %s", got.result, want.result)
	}
	if got.err != want.err {
		return fmt.Sprintf("error %q, want %q", got.err, want.err)
	}
	return ""
}

// diffVMs is a small correlated workload with −0 samples: every 17th
// sample of the first VM, every other sample of the second-to-last, whose
// others are +0, and the whole of the last.
func diffVMs(t *testing.T) []*model.VM {
	t.Helper()
	cfg := synth.DefaultDatacenterConfig()
	cfg.VMs, cfg.Groups, cfg.Day = 14, 3, 70*time.Minute
	ds := synth.Datacenter(cfg)
	vms := model.VMsFromSeries(ds.Names, ds.Fine)
	first := vms[0].Demand.Samples()
	for k := 0; k < len(first); k += 17 {
		first[k] = math.Copysign(0, -1)
	}
	zeros := vms[len(vms)-2].Demand.Samples()
	for k := range zeros {
		zeros[k] = math.Copysign(0, float64(k%2*2-1))
	}
	last := vms[len(vms)-1].Demand.Samples()
	for k := range last {
		last[k] = math.Copysign(0, -1)
	}
	return vms
}

// diffCase builds one configuration afresh for each run, since the cost
// matrix and the fault-injecting governors carry state. check, when set,
// says what is wrong with the reference's record for the case to test
// what it is meant to, or returns "".
type diffCase struct {
	name  string
	vms   []*model.VM // nil: the shared workload
	build func(n int) Config
	check func(runRecord) string
}

// diffCases is the grid: every policy with both governors, at every kind
// of rescale interval shorter than the period, each percentile, and the
// modes that change what a period measures, feeds or overloads. A rescale
// interval of block+36 samples spans two chunks in a 150-sample period,
// which it does not divide. Longer intervals fail validation
// (TestRunValidation). Each case skips what its components do not read:
// the off-peak unless the policy is PCP, and the rescale references
// unless the governor is Eqn 4.
func diffCases() []diffCase {
	var cases []diffCase
	type pg struct{ policy, governor string }
	pairs := []pg{
		{"bfd", "worst-case"}, {"bfd", "eqn4"},
		{"pcp", "worst-case"}, {"pcp", "eqn4"},
		{"corr-aware", "worst-case"}, {"corr-aware", "eqn4"},
	}
	for ci, c := range pairs {
		for pi, periodLen := range []int{150, 40} {
			for ei, every := range []int{0, 1, 7, 12, block + 36} {
				if every >= periodLen {
					continue
				}
				for qi, pctl := range []float64{1, 0.95} {
					// One of plain, Oracle, cumulative and overcommitted,
					// so that each meets every other axis.
					mode := (ci + pi + ei + qi) % 4
					name := fmt.Sprintf("%s/%s/period=%d/every=%d/pctl=%v/mode=%d", c.policy, c.governor, periodLen, every, pctl, mode)
					cases = append(cases, diffCase{name: name, build: func(n int) Config {
						cfg := baseConfig()
						cfg.PeriodSamples, cfg.RescaleEvery, cfg.Pctl = periodLen, every, pctl
						cfg.SkipOffPeak, cfg.SkipRecentRefs = c.policy != "pcp", c.governor != "eqn4"
						var m *core.CostMatrix
						if c.policy == "corr-aware" || c.governor == "eqn4" {
							m = core.NewCostMatrix(n, pctl)
							cfg.Matrix = m
						}
						switch c.policy {
						case "pcp":
							cfg.Policy = place.PCP{}
						case "corr-aware":
							cfg.Policy = &core.Allocator{Config: core.DefaultConfig(), Cost: m.Cost}
						}
						if c.governor == "eqn4" {
							cfg.Governor = CorrAware{Matrix: m}
						}
						switch mode {
						case 1:
							cfg.Oracle = true
						case 2:
							cfg.CumulativeMatrix = true
						case 3:
							cfg.MaxServers = 2 // overcommitted: violations
						}
						return cfg
					}})
				}
			}
		}
	}
	return cases
}

// faultyGovernor wraps a governor and replaces levels with bad: every
// server's in the plan of period plan, and the one the rescale call
// numbered rescale (counting from 1) returns.
type faultyGovernor struct {
	model.Governor
	bad           float64
	plan, rescale int
	plans, calls  int
}

func (g *faultyGovernor) PlanStatic(p *model.Placement, refs []float64, spec model.ServerSpec) []float64 {
	fs := g.Governor.PlanStatic(p, refs, spec)
	if g.plans == g.plan {
		for s := range fs {
			fs[s] = g.bad
		}
	}
	g.plans++
	return fs
}

func (g *faultyGovernor) Rescale(members []int, recentRefs []float64, aggPeak float64, spec model.ServerSpec) float64 {
	g.calls++
	if g.calls == g.rescale {
		return g.bad
	}
	return g.Governor.Rescale(members, recentRefs, aggPeak, spec)
}

// lowLevelGovernor plans every even server at 1.8 GHz, and rescales there
// every server whose first VM is even: a level the power model has and the
// spec lacks, so the draw is charged and residency skipped.
type lowLevelGovernor struct{ WorstCase }

func (g lowLevelGovernor) PlanStatic(p *model.Placement, refs []float64, spec model.ServerSpec) []float64 {
	fs := g.WorstCase.PlanStatic(p, refs, spec)
	for s := 0; s < len(fs); s += 2 {
		fs[s] = 1.8
	}
	return fs
}

func (lowLevelGovernor) Rescale(members []int, recentRefs []float64, aggPeak float64, spec model.ServerSpec) float64 {
	if members[0]%2 == 0 {
		return 1.8
	}
	return spec.MinLevelForDemand(aggPeak)
}

// TestRunMatchesPerSampleReference: the server-major period loop reports
// what the per-sample loop it replaced reports, bit for bit, at any
// GOMAXPROCS — every observer event, the Result, and for a level the power
// model lacks, the same error after the same number of samples. Its
// components read the same cost matrix as the reference's, which feeds it
// one sample at a time: every Place and Rescale call sees the same sample
// count and pair cost, wherever Run's chunks end.
func TestRunMatchesPerSampleReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	vms := diffVMs(t)
	cases := diffCases()
	// BFD reads no off-peak, and the governors below read only aggPeak.
	skipBoth := func() Config {
		cfg := baseConfig()
		cfg.SkipOffPeak, cfg.SkipRecentRefs = true, true
		return cfg
	}
	for _, every := range []int{0, 12, 7} {
		// Every server at a level the power model lacks from period 2's
		// plan: the run fails before that period's first sample, naming
		// the lowest server.
		cases = append(cases, diffCase{
			name: fmt.Sprintf("unknown-level/plan/every=%d", every),
			build: func(int) Config {
				cfg := skipBoth()
				cfg.PeriodSamples, cfg.RescaleEvery = 150, every
				cfg.Governor = &faultyGovernor{Governor: WorstCase{}, bad: 2.15, plan: 2, rescale: -1}
				return cfg
			},
			check: func(r runRecord) string {
				if !strings.HasPrefix(r.err, "sim: period 2 server 0: ") || len(r.samples) != 300 {
					return fmt.Sprintf("error %q after %d samples", r.err, len(r.samples))
				}
				return ""
			},
		})
		if every > 0 {
			// The 40th rescale call picks it: the run fails before the
			// rescaled sample, mid-period.
			cases = append(cases, diffCase{
				name: fmt.Sprintf("unknown-level/rescale/every=%d", every),
				build: func(int) Config {
					cfg := skipBoth()
					cfg.PeriodSamples, cfg.RescaleEvery = 150, every
					cfg.Governor = &faultyGovernor{Governor: WorstCase{}, bad: 2.15, plan: -1, rescale: 40}
					return cfg
				},
				check: func(r runRecord) string {
					if !strings.Contains(r.err, "no level at 2.15 GHz") || len(r.samples)%150 == 0 || len(r.samples)%150%every != 0 {
						return fmt.Sprintf("error %q after %d samples", r.err, len(r.samples))
					}
					return ""
				},
			})
		}
		cases = append(cases, diffCase{
			name: fmt.Sprintf("spec-lacks-level/every=%d", every),
			build: func(int) Config {
				cfg := skipBoth()
				cfg.PeriodSamples, cfg.RescaleEvery = 150, every
				cfg.Power = power.XeonFineGrained()
				cfg.Governor = lowLevelGovernor{}
				return cfg
			},
			check: func(r runRecord) string {
				if r.res == nil {
					return "error " + r.err
				}
				resident, billed := 0, 0
				for _, row := range r.res.FreqResidency {
					for _, c := range row {
						resident += c
					}
				}
				for _, p := range r.res.Periods {
					billed += p.ActiveServers * 150
				}
				if r.res.EnergyJ <= 0 || resident == 0 || resident >= billed {
					return fmt.Sprintf("energy %v J, %d of %d server-samples resident", r.res.EnergyJ, resident, billed)
				}
				return ""
			},
		})
	}
	// Four VMs of 2+1.25e-10 cores fill an 8-core server to within the
	// 1e-9 tolerance above its capacity: no violation.
	cases = append(cases, diffCase{
		name: "within-tolerance",
		vms:  flatVMs(4, 2+1.25e-10, 300),
		build: func(int) Config {
			cfg := skipBoth()
			cfg.MaxServers = 1
			return cfg
		},
		check: func(r runRecord) string {
			if r.res == nil || r.res.MaxViolationPct != 0 {
				return r.result
			}
			return ""
		},
	})
	for _, c := range cases {
		vms := vms
		if c.vms != nil {
			vms = c.vms
		}
		want := recordRun(referenceRun, vms, c.build(len(vms)))
		if c.check != nil {
			if d := c.check(want); d != "" {
				t.Fatalf("%s: reference run tests nothing: %s", c.name, d)
			}
		}
		for _, procs := range []int{1, 2, 7} {
			runtime.GOMAXPROCS(procs)
			if d := diffRecords(recordRun(Run, vms, c.build(len(vms))), want); d != "" {
				t.Fatalf("%s at GOMAXPROCS %d: %s", c.name, procs, d)
			}
		}
	}
}

// TestRunCancelMatchesReference: a context cancelled from OnSample stops
// the run before its next sample, as the per-sample loop did, wherever
// the sample falls: at a period's start or end, on a rescale boundary or
// a block boundary, or inside a chunk. The partial Result and the error
// are the reference's.
func TestRunCancelMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	vms := diffVMs(t)
	for _, every := range []int{0, 12} {
		for _, after := range []int{0, 1, 63, 64, 149, 150, 173, 174, 200, 299} {
			run := func(run func([]*model.VM, Config) (*model.Result, error)) runRecord {
				cfg := baseConfig()
				cfg.PeriodSamples, cfg.RescaleEvery = 150, every
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if after == 0 {
					cancel()
				}
				cfg.Ctx = ctx
				seen := 0
				cfg.OnSample = func(model.SampleStats) {
					if seen++; seen == after {
						cancel()
					}
				}
				return recordRun(run, vms, cfg)
			}
			want := run(referenceRun)
			if want.err != context.Canceled.Error() || len(want.samples) != after {
				t.Fatalf("every %d, cancel after %d: reference stopped after %d samples with %q", every, after, len(want.samples), want.err)
			}
			if d := diffRecords(run(Run), want); d != "" {
				t.Errorf("every %d, cancel after %d: %s", every, after, d)
			}
		}
	}
}
