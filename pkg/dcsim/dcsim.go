// Package dcsim is the public façade over the DATE'13 correlation-aware
// consolidation reproduction. It is the one way to assemble and run
// simulations: describe a run as a JSON-serializable Scenario (or build one
// with New and functional options), select components by registry name, and
// execute it with Run — optionally streaming per-sample metrics to
// Observers and cancelling early through a context.
//
//	sc := dcsim.New(dcsim.WithPolicy("bfd"), dcsim.WithSeed(7))
//	res, err := dcsim.Run(context.Background(), sc)
//
// The internal packages (core, place, sim, exp, …) stay internal; cmd/
// binaries and examples/ wire everything through this package.
package dcsim

import (
	"context"

	"repro/internal/sim"
	"repro/pkg/dcsim/model"
)

// Result aggregates a finished (or cancelled) run. It is the contract type
// model.Result.
type Result = model.Result

// VM is one simulated virtual machine with its demand trace. It is the
// contract type model.VM.
type VM = model.VM

// Dataset is a generated set of named VM demand traces. It is the
// contract type model.Dataset.
type Dataset = model.Dataset

// Series is a fixed-interval time series of utilization samples. It is the
// contract type model.Series.
type Series = model.Series

// Run assembles and executes a scenario end to end: load the workload,
// resolve every component from the registries, and simulate. Observers
// stream per-sample and per-period metrics while the run is in flight.
// Cancelling ctx stops the run between samples and returns the partial
// Result accumulated so far alongside the context's error.
func Run(ctx context.Context, sc Scenario, obs ...Observer) (*Result, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	// Check every registry name before synthesizing the workload, so a
	// typo fails fast instead of after generating thousands of traces.
	if err := sc.lookupErr(); err != nil {
		return nil, err
	}
	ds, err := loadTraces(ctx, sc.Workload)
	if err != nil {
		return nil, err
	}
	return runResolved(ctx, model.VMsFromSeries(ds.Names, ds.Fine), sc, obs)
}

// CheckScenario validates a scenario the way Run would — structural checks
// plus registry-name lookups — without synthesizing a workload or running
// anything. Sweep drivers use it to fail a whole grid fast on the first
// typo instead of deep into a fan-out.
func CheckScenario(sc Scenario) error {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return err
	}
	if err := sc.lookupErr(); err != nil {
		return err
	}
	if err := CheckWorkload(sc.Workload); err != nil {
		return err
	}
	// Dry-assemble the components so unknown scenario params fail here
	// too. The VM count only sizes the shared cost matrix, which params
	// consumption does not depend on, so keep it tiny.
	b := &Build{Scenario: sc, NVMs: 2}
	if _, err := NewPolicy(sc.Policy, b); err != nil {
		return err
	}
	if _, err := NewGovernor(sc.Governor, b); err != nil {
		return err
	}
	if _, err := NewPredictor(sc.Predictor, b); err != nil {
		return err
	}
	// The dry build's matrix is sized for 2 VMs; bound the run's by the
	// VM count the workload declares.
	if b.matrix != nil && sc.Workload.VMs > 0 {
		if err := costSourceErr(sc.Workload.VMs, b.refPctl()); err != nil {
			return err
		}
	}
	return b.unusedParamErr()
}

// lookupErr reports the first unknown registry name in the scenario
// without instantiating anything.
func (s Scenario) lookupErr() error {
	if _, err := workloadReg.Lookup(kindOrDefault(s.Workload.Kind)); err != nil {
		return err
	}
	if _, err := serverReg.Lookup(s.Server); err != nil {
		return err
	}
	if _, err := policyReg.Lookup(s.Policy); err != nil {
		return err
	}
	if _, err := governorReg.Lookup(s.Governor); err != nil {
		return err
	}
	_, err := predictorReg.Lookup(s.Predictor)
	return err
}

// RunVMs is Run with a caller-supplied VM population instead of the
// scenario's workload, which is ignored except as documentation of intent.
// Run over a workload equals RunVMs over the Dataset GenerateTraces
// returns for it (the tests hold them to that). Recorded traces need no
// hook: they are the "trace-dir" and "trace-obj" workload kinds.
func RunVMs(ctx context.Context, vms []*VM, sc Scenario, obs ...Observer) (*Result, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return runResolved(ctx, vms, sc, obs)
}

// runResolved assembles and runs a scenario whose defaults are already
// applied and validated.
func runResolved(ctx context.Context, vms []*VM, sc Scenario, obs []Observer) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, err := assemble(ctx, len(vms), sc)
	if err != nil {
		return nil, err
	}
	if len(obs) > 0 {
		cfg.OnSample = func(s Sample) {
			for _, o := range obs {
				o.OnSample(s)
			}
		}
		cfg.OnPeriod = func(p Period) {
			for _, o := range obs {
				o.OnPeriod(p)
			}
		}
	}
	return sim.Run(vms, cfg)
}

// assemble builds every component of a resolved scenario for a run over
// nVMs VMs into the simulator's configuration. The run measures the
// off-peak and rescale references only if a factory declared them.
func assemble(ctx context.Context, nVMs int, sc Scenario) (sim.Config, error) {
	b := &Build{Scenario: sc, NVMs: nVMs}
	model, err := LookupServer(sc.Server)
	if err != nil {
		return sim.Config{}, err
	}
	policy, err := NewPolicy(sc.Policy, b)
	if err != nil {
		return sim.Config{}, err
	}
	governor, err := NewGovernor(sc.Governor, b)
	if err != nil {
		return sim.Config{}, err
	}
	predictor, err := NewPredictor(sc.Predictor, b)
	if err != nil {
		return sim.Config{}, err
	}
	// Every factory has run; params nothing consumed are configuration
	// errors (a typo, or a knob for a component this scenario does not
	// select), not silently ignored defaults.
	if err := b.unusedParamErr(); err != nil {
		return sim.Config{}, err
	}
	if b.matrixErr != nil {
		return sim.Config{}, b.matrixErr
	}
	return sim.Config{
		Spec:             model.Spec,
		Power:            model.Power,
		Policy:           policy,
		Governor:         governor,
		MaxServers:       sc.MaxServers,
		PeriodSamples:    sc.PeriodSamples,
		RescaleEvery:     sc.RescaleEvery,
		Pctl:             sc.Pctl,
		OffPctl:          sc.OffPctl,
		SkipOffPeak:      !b.offPeak,
		SkipRecentRefs:   !b.recentRefs,
		Predictor:        predictor,
		Matrix:           b.matrix, // nil unless some component asked for it
		CumulativeMatrix: sc.CumulativeMatrix,
		Oracle:           sc.Oracle,
		Ctx:              ctx,
	}, nil
}
