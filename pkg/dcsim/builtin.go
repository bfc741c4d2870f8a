// builtin.go wires the engine's implementations into the registries. It is
// the only façade file that touches the unexported engine packages: every
// exported dcsim signature speaks pkg/dcsim/model, and an out-of-tree
// module registers its components exactly the way this file registers the
// built-ins.
package dcsim

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/objstore"
	"repro/internal/place"
	"repro/internal/power"
	"repro/internal/predict"
	"repro/internal/reg"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/tracedir"
	"repro/pkg/dcsim/model"
)

var (
	policyReg    = reg.New[PolicyFactory]("dcsim", "policy")
	governorReg  = reg.New[GovernorFactory]("dcsim", "governor")
	predictorReg = reg.New[PredictorFactory]("dcsim", "predictor")
	serverReg    = reg.New[ServerModel]("dcsim", "server model")
	workloadReg  = reg.New[model.WorkloadSource]("dcsim", "workload kind")
)

// synthSource is the built-in synthetic workload backend: the paper's
// Setup-2 datacenter generator, with the group structure optionally
// shuffled away ("uncorrelated"). Zero-valued workload fields select the
// generator defaults, mirroring Scenario.withDefaults.
type synthSource struct{ uncorrelated bool }

// maxSynthSamples bounds the float64 samples a synthetic workload makes
// its generator and run hold: every group's coarse profile, allocated
// before the first VM, plus every VM's fine series, which a run keeps.
// Like maxServersLimit it keeps one small untrusted scenario from asking
// for hundreds of gigabytes. 1<<28 samples are 2 GiB; the repository's
// largest synthetic workload (2,000 VMs over 6 h) holds 3% of that, and
// 10,000 VMs over 24 h hold 64%.
const maxSynthSamples = 1 << 28

// Check implements model.WorkloadSource. Synthesis needs no I/O, so the
// only fail-fast conditions are configuration errors: a path (synthetic
// kinds read nothing from disk), negative counts, which would otherwise
// silently select the defaults, and a population too large to hold.
func (s synthSource) Check(w model.Workload) error {
	if w.Path != "" {
		return fmt.Errorf("dcsim: workload kind %q is synthetic and does not read a path (got %q)", w.Kind, w.Path)
	}
	if bad := w.UnknownOptions(); len(bad) > 0 {
		return fmt.Errorf("dcsim: workload kind %q reads no options, got %s", w.Kind, strings.Join(bad, ", "))
	}
	if w.VMs < 0 || w.Groups < 0 || w.Hours < 0 {
		return fmt.Errorf("dcsim: workload kind %q needs non-negative vms/groups/hours (0 = default), got %d/%d/%d",
			w.Kind, w.VMs, w.Groups, w.Hours)
	}
	// The generator's horizon is a time.Duration; past this it wraps.
	if maxHours := math.MaxInt64 / int64(time.Hour); int64(w.Hours) > maxHours {
		return fmt.Errorf("dcsim: workload kind %q needs hours at most %d (the longest time.Duration), got %d",
			w.Kind, maxHours, w.Hours)
	}
	// Count in float64: the product of unchecked counts can overflow an
	// int64, and every count below the limit is exact.
	cfg := s.config(w)
	coarse := float64(cfg.Day / cfg.CoarseInterval)
	if n := coarse * (float64(cfg.Groups) + float64(cfg.VMs)*float64(cfg.FineFactor)); n > maxSynthSamples {
		return fmt.Errorf("dcsim: workload kind %q would hold %.0f samples (%d group profiles and %d VMs over %d h), more than the limit of %d",
			w.Kind, n, cfg.Groups, cfg.VMs, cfg.Day/time.Hour, maxSynthSamples)
	}
	return nil
}

// Load implements model.WorkloadSource, deterministically in the seed.
func (s synthSource) Load(ctx context.Context, w model.Workload) (*model.Dataset, error) {
	if err := s.Check(w); err != nil {
		return nil, err
	}
	return synth.Load(ctx, s.config(w))
}

// config maps the workload description onto the generator config, zero
// fields selecting the generator defaults. "uncorrelated" is the same
// generator with one group per VM, so no VMs share a profile.
func (s synthSource) config(w model.Workload) synth.DatacenterConfig {
	cfg := synth.DefaultDatacenterConfig()
	if w.VMs > 0 {
		cfg.VMs = w.VMs
	}
	if w.Groups > 0 {
		cfg.Groups = w.Groups
	}
	if w.Hours > 0 {
		cfg.Day = time.Duration(w.Hours) * time.Hour
	}
	if w.Seed != 0 {
		cfg.Seed = w.Seed
	}
	if s.uncorrelated {
		cfg.Groups = cfg.VMs
	}
	return cfg
}

// newCostSource builds the engine's streaming Eqn-1 cost matrix — the
// CostSource implementation Build.Matrix hands to components.
func newCostSource(n int, pctl float64) model.CostSource {
	return core.NewCostMatrix(n, pctl)
}

// maxMatrixBytes bounds the memory of a run's shared cost matrix, which
// holds a peak or a P² estimator for every VM and every VM pair and is
// allocated whole before the first sample. Like maxSynthSamples it keeps
// one small untrusted scenario from asking for hundreds of gigabytes, and
// it is the same 2 GiB: exact peaks for up to 23,169 VMs, or percentile
// estimators for up to 4,378.
const maxMatrixBytes = 2 << 30

// costSourceErr reports a cost matrix for n VMs at reference percentile
// pctl that would take more than maxMatrixBytes, without allocating it.
func costSourceErr(n int, pctl float64) error {
	if size := core.CostMatrixBytes(n, pctl); size > maxMatrixBytes {
		return fmt.Errorf("dcsim: the cost matrix for %d VMs (pctl %v) would take %.0f bytes, more than the limit of %d",
			n, pctl, size, int64(maxMatrixBytes))
	}
	return nil
}

func init() {
	// Workload backends: the two synthetic generators the paper's Setup 2
	// uses, plus the recorded-trace readers — the same manifest+chunks
	// layout from a local directory or read from an HTTP(S) object
	// store. Out-of-tree modules register theirs exactly like this,
	// against model types alone.
	RegisterWorkload("datacenter", synthSource{})
	RegisterWorkload("uncorrelated", synthSource{uncorrelated: true})
	RegisterWorkload("trace-dir", tracedir.Source{})
	RegisterWorkload("trace-obj", objstore.Source{})

	// Placement policies. "corr" is a convenience alias for the paper's
	// correlation-aware allocator.
	corrAware := func(b *Build) (model.Policy, error) {
		cfg := core.DefaultConfig()
		cfg.THCost = b.Param("thcost", cfg.THCost)
		cfg.Alpha = b.Param("alpha", cfg.Alpha)
		// alloc_block bounds each server fill's candidate set. Blocked
		// evaluation is the default (core.DefaultBlock, the measured
		// sweet spot — identical placements at the paper's scale, within
		// ~1% active servers at 1k-2k VMs, sub-quadratic at 10k+);
		// alloc_block=0 restores the exact Fig.-2 semantics at any scale.
		blk := b.Param("alloc_block", float64(cfg.Block))
		if blk != math.Trunc(blk) || blk < 0 {
			return nil, fmt.Errorf("dcsim: param %q must be a non-negative integer (0 = exact evaluation), got %v", "alloc_block", blk)
		}
		cfg.Block = int(blk)
		return &core.Allocator{Config: cfg, Cost: b.Matrix().Cost}, nil
	}
	RegisterPolicy("corr-aware", corrAware)
	RegisterPolicy("corr", corrAware)
	RegisterPolicy("ffd", func(*Build) (model.Policy, error) { return place.FFD{}, nil })
	RegisterPolicy("bfd", func(*Build) (model.Policy, error) { return place.BFD{}, nil })
	// PCP extracts every envelope afresh on each Place: it keeps no state
	// between periods, so one value serves any number of runs. It is the
	// one built-in that provisions by the off-peak reference.
	RegisterPolicy("pcp", func(b *Build) (model.Policy, error) {
		b.NeedOffPeak()
		return place.PCP{}, nil
	})
	RegisterPolicy("jointvm", func(b *Build) (model.Policy, error) { return place.JointVM{Pctl: b.refPctl()}, nil })

	// Frequency governors. "corr-aware" aliases the paper's Eqn-4 governor,
	// which rescales from the per-VM references; "worst-case" reads only
	// the server's aggregate peak.
	eqn4 := func(b *Build) (model.Governor, error) {
		b.NeedRecentRefs()
		return sim.CorrAware{Matrix: b.Matrix()}, nil
	}
	RegisterGovernor("eqn4", eqn4)
	RegisterGovernor("corr-aware", eqn4)
	RegisterGovernor("worst-case", func(*Build) (model.Governor, error) { return sim.WorstCase{}, nil })

	// Workload predictors (defaults are the paper's/DESIGN.md choices;
	// scenario params override the window/smoothing knobs).
	RegisterPredictor("last-value", func(*Build) (model.Predictor, error) { return predict.LastValue{}, nil })
	RegisterPredictor("moving-average", func(b *Build) (model.Predictor, error) {
		k, err := b.IntParam("ma_k", 3)
		if err != nil {
			return nil, err
		}
		return predict.MovingAverage{K: k}, nil
	})
	RegisterPredictor("ewma", func(b *Build) (model.Predictor, error) {
		return predict.EWMA{Alpha: b.Param("ewma_alpha", 0.5)}, nil
	})
	RegisterPredictor("max-of", func(b *Build) (model.Predictor, error) {
		k, err := b.IntParam("maxof_k", 3)
		if err != nil {
			return nil, err
		}
		return predict.MaxOf{K: k}, nil
	})

	// Server models. The Opteron has no fitted power model in the repo, so
	// the consolidation runs offer the Xeon and its hypothetical six-level
	// variant (ablation A7's hardware axis); the web-search testbed pins
	// its own hardware.
	RegisterServer("xeon-e5410", ServerModel{Spec: server.XeonE5410(), Power: power.XeonE5410()})
	RegisterServer("xeon-6level", ServerModel{Spec: server.XeonFineGrained(), Power: power.XeonFineGrained()})
}
