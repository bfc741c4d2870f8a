// Package sim is the trace-driven datacenter consolidation simulator behind
// the paper's Setup 2 (Table II and Fig. 6): a pool of homogeneous servers,
// a VM placement policy invoked every tperiod with predicted per-VM
// reference utilizations, a voltage/frequency governor (static-at-placement
// or rescaled every few samples), and per-sample accounting of power,
// energy, QoS violations, and frequency-level residency.
package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/pkg/dcsim/model"
)

// WorstCase is the correlation-oblivious governor the BFD and PCP baselines
// use. Statically it runs each server at the lowest level whose capacity
// covers the sum of its members' references — sound if all peaks coincide.
// Dynamically it behaves like a per-server utilization-tracking governor
// (Linux ondemand style): the lowest level covering the last window's
// aggregate demand peak.
type WorstCase struct{}

// Name implements model.Governor.
func (WorstCase) Name() string { return "worst-case" }

// PlanStatic implements model.Governor.
func (WorstCase) PlanStatic(p *model.Placement, refs []float64, spec model.ServerSpec) []float64 {
	return core.WorstCaseFreqPlan(p, refs, spec)
}

// Rescale implements model.Governor.
func (WorstCase) Rescale(members []int, recentRefs []float64, aggPeak float64, spec model.ServerSpec) float64 {
	return spec.MinLevelForDemand(aggPeak)
}

// CorrAware is the paper's governor: Eqn 4, discounting the worst-case
// frequency by the server's correlation cost (Eqn 2). It reads pairwise
// costs from the shared streaming matrix; while the matrix is still cold
// (early in a monitoring window) costs default to 1 and the governor
// behaves like WorstCase — the safe direction.
type CorrAware struct {
	Matrix model.CostSource
}

// Name implements model.Governor.
func (g CorrAware) Name() string { return "eqn4" }

// PlanStatic implements model.Governor.
func (g CorrAware) PlanStatic(p *model.Placement, refs []float64, spec model.ServerSpec) []float64 {
	return core.FreqPlan(p, refs, g.Matrix.Cost, spec)
}

// Rescale implements model.Governor.
func (g CorrAware) Rescale(members []int, recentRefs []float64, aggPeak float64, spec model.ServerSpec) float64 {
	return core.FreqForServer(members, recentRefs, g.Matrix.Cost, spec)
}

// Config parameterizes one simulation run.
type Config struct {
	Spec       model.ServerSpec
	Power      model.PowerModel
	Policy     model.Policy
	Governor   model.Governor
	MaxServers int
	// PeriodSamples is tperiod in samples (paper: 720 = 1 h of 5-s
	// samples).
	PeriodSamples int
	// RescaleEvery enables dynamic v/f scaling every so many samples
	// (paper: 12 = 1 min); 0 keeps levels static within a period.
	RescaleEvery int
	// Pctl is the reference percentile for û (>= 1 = peak, the paper's
	// Setup-2 provisioning choice).
	Pctl float64
	// OffPctl is the off-peak percentile PCP provisions with (a value
	// outside (0, 1), NaN included, -> 0.9).
	OffPctl float64
	// Predictor forecasts next-period references from per-period history
	// (paper: last-value).
	Predictor model.Predictor
	// Matrix, when set, is fed every utilization sample and reset at
	// each period boundary, so at placement time it holds the previous
	// period's statistics — the UPDATE phase of Fig. 2. Policies and
	// governors that want correlation data should share this instance.
	Matrix model.CostSource
	// CumulativeMatrix keeps the matrix across period boundaries instead
	// of resetting it, trading sensitivity to time-varying correlation
	// for estimates that are never cold. Ablation A6 studies the trade.
	CumulativeMatrix bool
	// Oracle, when set, replaces the Predictor with perfect knowledge of
	// the coming period's references — the assumption the paper
	// criticizes in Halder et al. [9]. It bounds how much of the QoS gap
	// is prediction error.
	Oracle bool
	// Ctx, when set, cancels a run between samples: Run returns the
	// partial Result accumulated up to the cancellation point together
	// with the context's error. A nil Ctx never cancels.
	Ctx context.Context
	// OnSample, when set, is invoked once per simulated sample with that
	// instant's aggregate stats — the streaming hook pkg/dcsim observers
	// attach to. It runs on the simulation goroutine; slow callbacks slow
	// the run.
	OnSample func(model.SampleStats)
	// OnPeriod, when set, is invoked at each period boundary with the
	// finished period's stats.
	OnPeriod func(model.PeriodStats)
}

func (c *Config) validate(nVMs int) error {
	if c.Policy == nil || c.Governor == nil {
		return errors.New("sim: Policy and Governor are required")
	}
	if c.MaxServers < 1 {
		return errors.New("sim: MaxServers must be at least 1")
	}
	if c.PeriodSamples < 1 {
		return errors.New("sim: PeriodSamples must be at least 1")
	}
	if c.RescaleEvery < 0 {
		return errors.New("sim: RescaleEvery must be non-negative")
	}
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if err := c.Power.Validate(); err != nil {
		return err
	}
	for _, f := range c.Spec.Freqs {
		ok := false
		for _, l := range c.Power.Levels {
			if l.Freq == f {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("sim: power model %q lacks level %v GHz", c.Power.Name, f)
		}
	}
	if c.Predictor == nil {
		return errors.New("sim: Predictor is required")
	}
	if c.Matrix != nil && c.Matrix.N() != nVMs {
		return fmt.Errorf("sim: matrix tracks %d VMs, run has %d", c.Matrix.N(), nVMs)
	}
	return nil
}

// Run simulates the given VMs under cfg. All VM demand traces must share
// interval and length; the horizon is truncated to whole periods.
func Run(vms []*model.VM, cfg Config) (*model.Result, error) {
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
				off = v.RefOver(winFrom, winTo, offPctl)
				refHist[i] = append(refHist[i], ref)
				offHist[i] = append(offHist[i], off)
			} else {
				winFrom, winTo = start-cfg.PeriodSamples, start
				ref = cfg.Predictor.Predict(refHist[i])
				off = cfg.Predictor.Predict(offHist[i])
			}
			refs[i] = ref
			reqs[i] = model.Request{
				ID:      v.ID,
				Ref:     ref,
				OffPeak: off,
				Window:  v.Demand.Slice(winFrom, winTo),
			}
		}

		// Bootstrap the streaming matrix for the first placement so the
		// correlation-aware policy is not blind at p=0 (every policy
		// sees the same bootstrap data via Request.Window).
		if cfg.Matrix != nil && p == 0 {
			feedMatrix(cfg.Matrix, vms, sample, start, end)
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
				for i, v := range vms {
					recentRefs[i] = v.RefOver(from, k, cfg.Pctl)
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
				offHist[i] = append(offHist[i], v.RefOver(start, end, offPctl))
			}
		}
	}

	finalize()
	return res, nil
}

func feedMatrix(m model.CostSource, vms []*model.VM, scratch []float64, from, to int) {
	for k := from; k < to; k++ {
		for i, v := range vms {
			scratch[i] = v.Demand.At(k)
		}
		m.Add(scratch)
	}
}
