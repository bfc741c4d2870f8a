// Package sim is the trace-driven datacenter consolidation simulator behind
// the paper's Setup 2 (Table II and Fig. 6): a pool of homogeneous servers,
// a VM placement policy invoked every tperiod with predicted per-VM
// reference utilizations, a voltage/frequency governor (static-at-placement
// or rescaled every few samples), and per-sample accounting of power,
// energy, QoS violations, and frequency-level residency.
//
// Membership is fixed within a period, so the accounting is server-major:
// for each chunk of samples up to the next rescale boundary, each active
// server's members' demand is summed once, and the violation, power,
// residency and aggregate-peak accounting of every sample reads those
// sums.
// Each server's capacity, residency column and power line are resolved
// when the governor sets its level, not per sample. Every sum adds the
// members in placement order from 0.0, and every per-sample total adds the
// servers in index order, so the results are the ones a loop over samples
// and then servers gives, bit for bit. The cost matrix is fed each chunk
// in one Add, after the chunk is billed and before its samples are
// reported: a chunk ends wherever a component reads the matrix (a
// placement or PlanStatic at the period's start, Rescale at a rescale
// boundary), so every read sees the matrix fed through the sample before
// it, as a per-sample feed leaves it. Each period's per-VM reference
// measurements, which need no component, run over VM ranges on up to
// GOMAXPROCS goroutines; every component call and observer callback stays
// on the caller's goroutine. Every per-VM reference (history, bootstrap,
// Oracle and rescale) is VM.RefOver over its window.
// A run whose components read no off-peak or no rescale references skips
// measuring them (Config.SkipOffPeak, Config.SkipRecentRefs). The off-peak
// is selected once per VM per period: the measurement over a request's
// window is both the next prediction's history and the request's
// WindowOffPeak.
package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

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
	// (paper: 12 = 1 min), fewer than PeriodSamples; 0 keeps levels
	// static within a period.
	RescaleEvery int
	// Pctl is the reference percentile for û (>= 1 = peak, the paper's
	// Setup-2 provisioning choice).
	Pctl float64
	// OffPctl is the off-peak percentile PCP provisions with and
	// extracts its envelopes against (a value outside (0, 1), NaN
	// included, -> 0.9).
	OffPctl float64
	// SkipOffPeak leaves the off-peak references unmeasured and
	// unpredicted, and every Request.OffPeak and WindowOffPeak 0. Set it
	// when the Policy reads neither; the zero value measures them.
	SkipOffPeak bool
	// SkipRecentRefs leaves the per-VM references over each rescale
	// window unmeasured, and Rescale's recentRefs zero. Set it when the
	// Governor does not read recentRefs; the zero value measures them.
	SkipRecentRefs bool
	// Predictor forecasts next-period references from per-period history
	// (paper: last-value).
	Predictor model.Predictor
	// Matrix, when set, is fed every utilization sample and reset at
	// each period boundary, so at placement time it holds the previous
	// period's statistics — the UPDATE phase of Fig. 2. Policies and
	// governors that want correlation data should share this instance.
	// Run feeds it a chunk of up to 64 samples per Add; each chunk ends
	// at the next rescale boundary or the period's end, so a component
	// always reads it fed through the sample before the read.
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
	// attach to. It runs on the goroutine that called Run, in sample
	// order, after the sample's chunk (the sample, and the rest of its
	// chunk) has been fed to Matrix and before Ctx is checked for the
	// next sample, and never while Run's own goroutines are measuring;
	// slow callbacks slow the run.
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
	if c.RescaleEvery > 0 && c.RescaleEvery >= c.PeriodSamples {
		return fmt.Errorf("sim: RescaleEvery %d must be below PeriodSamples %d (0 = static levels)",
			c.RescaleEvery, c.PeriodSamples)
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

// block is the most samples the accounting loop sums per server at once.
// Each VM's chunk is then a few cache lines read in one go, and every
// active server's sums stay in cache while they are billed. A chunk also
// ends at a rescale boundary, where the levels and aggregate peaks change.
const block = 64

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
	secs := interval.Seconds()
	rescale := cfg.RescaleEvery

	res := &model.Result{
		Policy:        cfg.Policy.Name(),
		Governor:      cfg.Governor.Name(),
		Dynamic:       rescale > 0,
		FreqResidency: make([][]int, cfg.MaxServers),
	}
	for s := range res.FreqResidency {
		res.FreqResidency[s] = make([]int, len(cfg.Spec.Freqs))
	}

	data := make([][]float64, len(vms)) // each VM's samples
	for i, v := range vms {
		data[i] = v.Demand.Samples()
	}
	refHist := make([][]float64, len(vms)) // per-VM per-period û history
	offHist := make([][]float64, len(vms)) // per-VM per-period off-peak history
	// measure appends each VM's û and, unless skipped, off-peak reference
	// over [from, to) to its history, over VM ranges on up to GOMAXPROCS
	// goroutines.
	measure := func(from, to int) {
		forRanges(len(vms), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				refHist[i] = append(refHist[i], vms[i].RefOver(from, to, cfg.Pctl))
				if !cfg.SkipOffPeak {
					offHist[i] = append(offHist[i], vms[i].RefOver(from, to, offPctl))
				}
			}
		})
	}

	// Scratch, sized once per run. Active servers never outnumber VMs.
	maxActive := min(cfg.MaxServers, len(vms))
	act := make([]host, 0, maxActive)
	sums := make([]float64, maxActive*block) // act[a]'s chunk sums at a*block
	power := make([]float64, block)          // per sample of a chunk: Σ draw
	viol := make([]int, block)               // per sample of a chunk: violating servers
	var chunk []float64                      // a chunk's demand, sample-major, for the matrix
	if cfg.Matrix != nil {
		chunk = make([]float64, block*len(vms))
	}
	// validate keeps a positive interval below the period, so rescale
	// boundaries fall inside every period. Each rescale's per-VM
	// references are measured into recentRefs, or, skipped, left zero.
	rescales := rescale > 0
	var recentRefs []float64
	if rescales {
		recentRefs = make([]float64, len(vms))
	}
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
			res.MeanPowerW = res.EnergyJ / (float64(totalSamples) * secs)
		}
		if len(res.Periods) > 0 {
			res.MeanViolationPct = sumPeriodMaxViol / float64(len(res.Periods))
			res.MeanActive = float64(sumActive) / float64(len(res.Periods))
		}
	}
	cancelled := func() bool { return cfg.Ctx != nil && cfg.Ctx.Err() != nil }

	for p := 0; p < periods; p++ {
		start := p * cfg.PeriodSamples
		end := start + cfg.PeriodSamples

		// UPDATE phase: predict next-period references. The first
		// period has no history; bootstrap with its own measured
		// references (identically for every policy, so comparisons
		// stay fair).
		measured := p == 0 || cfg.Oracle
		if measured {
			// Oracle bootstrap: measure the period itself (always done
			// for the first period, for every policy alike). The
			// measurement is also the period's history entry; nothing
			// reads the history before the period ends.
			measure(start, end)
		}
		reqs := make([]model.Request, len(vms))
		refs := make([]float64, len(vms))
		for i, v := range vms {
			// winOff is the off-peak measured over the request's window:
			// this period's, or the one before, the history's last entry.
			var ref, off, winOff float64
			winFrom, winTo := start, end
			if measured {
				ref = refHist[i][p]
				if !cfg.SkipOffPeak {
					off = offHist[i][p]
					winOff = off
				}
			} else {
				winFrom, winTo = start-cfg.PeriodSamples, start
				ref = cfg.Predictor.Predict(refHist[i])
				if !cfg.SkipOffPeak {
					off = cfg.Predictor.Predict(offHist[i])
					winOff = offHist[i][p-1]
				}
			}
			refs[i] = ref
			reqs[i] = model.Request{
				ID:            v.ID,
				Ref:           ref,
				OffPeak:       off,
				WindowOffPeak: winOff,
				Window:        v.Demand.Slice(winFrom, winTo),
			}
		}

		// Bootstrap the streaming matrix for the first placement so the
		// correlation-aware policy is not blind at p=0 (every policy
		// sees the same bootstrap data via Request.Window).
		if cfg.Matrix != nil && p == 0 {
			for k := start; k < end; k += block {
				feed(cfg.Matrix, chunk, data, k, min(k+block, end))
			}
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

		migrations := 0
		if prevAssign != nil {
			for i, s := range placement.Assign {
				if prevAssign[i] != s {
					migrations++
				}
			}
		}
		prevAssign = append(prevAssign[:0], placement.Assign...)

		// Per-period accounting over the active servers, ascending: an
		// empty server is consolidated off and draws no power.
		act = act[:0]
		for s, ms := range core.Members(placement) {
			if len(ms) > 0 {
				act = append(act, host{id: s, members: ms})
				act[len(act)-1].setLevel(freqs[s], &cfg)
			}
		}
		active := len(act)
		for s := range periodResidency {
			clear(periodResidency[s])
		}
		periodEnergy := 0.0

		for k0 := start; k0 < end; {
			// A chunk ends at the block's length, the next rescale boundary
			// or the period's end, whichever comes first.
			k1 := min(k0+block, end)
			rescaled := false
			if rescales {
				off := (k0 - start) % rescale
				rescaled = k0 > start && off == 0
				k1 = min(k1, k0+rescale-off)
			}
			if cancelled() {
				finalize()
				return res, cfg.Ctx.Err()
			}
			if rescaled {
				if !cfg.SkipRecentRefs {
					for i, v := range vms {
						recentRefs[i] = v.RefOver(k0-rescale, k0, cfg.Pctl)
					}
				}
				for a := range act {
					sv := &act[a]
					sv.setLevel(cfg.Governor.Rescale(sv.members, recentRefs, sv.peak, cfg.Spec), &cfg)
					sv.peak = 0
				}
			}
			if k0 == start || rescaled {
				// Billing a server at a level the power model lacks fails
				// at the level's first sample, lowest server first.
				for _, sv := range act {
					if sv.err != nil {
						return nil, fmt.Errorf("sim: period %d server %d: %w", p, sv.id, sv.err)
					}
				}
			}
			sumChunk(act, data, k0, k1, sums)
			bill(act, sums, k1-k0, power, viol, periodResidency)
			if cfg.Matrix != nil {
				feed(cfg.Matrix, chunk, data, k0, k1)
			}
			for k := k0; k < k1; k++ {
				if k > k0 && cancelled() {
					finalize()
					return res, cfg.Ctx.Err()
				}
				periodEnergy += power[k-k0] * secs
				if cfg.OnSample != nil {
					cfg.OnSample(model.SampleStats{
						K:             k,
						Period:        p,
						ActiveServers: active,
						PowerW:        power[k-k0],
						Violations:    viol[k-k0],
					})
				}
			}
			k0 = k1
		}

		for s := range periodResidency {
			for l, c := range periodResidency[s] {
				res.FreqResidency[s][l] += c
			}
		}
		maxViol := 0.0
		for _, sv := range act {
			v := 100 * float64(sv.viol) / float64(cfg.PeriodSamples)
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
			measure(start, end)
		}
	}

	finalize()
	return res, nil
}

// host is one active server's state within a period.
type host struct {
	id      int
	members []int // ascending
	// What billing reads of the current level, resolved by setLevel.
	capF  float64 // capacity
	idle  float64 // power line: idle + span·u
	span  float64
	level int   // residency column, -1 when the spec lacks the level
	err   error // the power model's error for the level, raised when billed
	// Running counts: the aggregate demand peak since the last rescale
	// and the violating samples this period.
	peak float64
	viol int
}

// setLevel resolves everything billing reads of frequency level f.
func (sv *host) setLevel(f float64, cfg *Config) {
	sv.capF = cfg.Spec.CapacityAt(f)
	sv.idle, sv.span, sv.err = cfg.Power.Line(f)
	sv.level = cfg.Spec.LevelIndex(f)
}

// sumChunk sums each active server's demand over samples [k0, k1) into
// its row of sums, adding its members in order from 0.0 as a per-sample
// loop does, so every sum keeps its bits.
func sumChunk(act []host, data [][]float64, k0, k1 int, sums []float64) {
	for a := range act {
		row := sums[a*block : a*block+k1-k0]
		clear(row)
		for _, i := range act[a].members {
			x := data[i][k0:k1]
			x = x[:len(row)]
			for j, v := range x {
				row[j] += v
			}
		}
	}
}

// bill charges a chunk's first n samples to every active server: its
// violations, its draw into power[j] (servers in ascending order, so each
// sample's total keeps a per-sample loop's bits), its residency and its
// running window peak.
func bill(act []host, sums []float64, n int, power []float64, viol []int, residency [][]int) {
	power, viol = power[:n], viol[:n]
	clear(power)
	clear(viol)
	for a := range act {
		sv := &act[a]
		row := sums[a*block : a*block+n]
		limit := sv.capF + 1e-9
		peak, nViol := sv.peak, 0
		for j, d := range row {
			if d > limit {
				nViol++
				viol[j]++
			}
			// Power's clip at 0 never applies: a sum of validated
			// samples from 0.0 is not negative.
			u := d / sv.capF
			if u > 1 {
				u = 1
			}
			power[j] += sv.idle + sv.span*u
			if d > peak {
				peak = d
			}
		}
		sv.peak, sv.viol = peak, sv.viol+nViol
		if sv.level >= 0 {
			residency[sv.id][sv.level] += n
		}
	}
}

// feed hands m every VM's demand over samples [k0, k1) in one Add,
// sample-major, through buf. A cancelled run may have fed samples its
// Result does not count; nothing reads the matrix after that.
func feed(m model.CostSource, buf []float64, data [][]float64, k0, k1 int) {
	n := len(data)
	buf = buf[:(k1-k0)*n]
	for i, d := range data {
		for t, v := range d[k0:k1] {
			buf[t*n+i] = v
		}
	}
	m.Add(buf)
}

// forRanges calls fn over [0, n) split into up to GOMAXPROCS contiguous
// ranges, each on its own goroutine, and returns once every call has.
func forRanges(n int, fn func(lo, hi int)) {
	g := min(runtime.GOMAXPROCS(0), n)
	if g <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(g)
	for r := range g {
		go func() {
			defer wg.Done()
			fn(r*n/g, (r+1)*n/g)
		}()
	}
	wg.Wait()
}
