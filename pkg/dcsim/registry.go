package dcsim

import (
	"fmt"
	"math"
	"sort"

	"repro/pkg/dcsim/model"
)

// Build carries the per-run state component factories share. Its main job
// is the lazily created streaming cost matrix: a correlation-aware policy
// and the Eqn-4 governor must read the same statistics, and the simulator
// must feed that same instance every sample. Factories also declare on it
// the inputs their components read that the run measures only on request
// (NeedOffPeak, NeedRecentRefs); an input nothing declared reads as 0.
type Build struct {
	// Scenario is the scenario being assembled (defaults already applied).
	Scenario Scenario
	// NVMs is the number of VMs in the run.
	NVMs int

	matrix     model.CostSource
	matrixErr  error // the matrix was too large to allocate
	offPeak    bool  // a component reads Request.OffPeak or WindowOffPeak
	recentRefs bool  // a governor reads Rescale's recentRefs
	usedParams map[string]bool
}

// NeedOffPeak declares that a component built on b reads
// model.Request.OffPeak or WindowOffPeak. Run measures and predicts each
// VM's off-peak reference only when some factory called it; otherwise
// both are 0 in every request.
func (b *Build) NeedOffPeak() { b.offPeak = true }

// NeedRecentRefs declares that a governor built on b reads the recentRefs
// argument of model.Governor.Rescale. Run measures each VM's reference over
// every rescale window only when some factory called it; otherwise
// recentRefs holds zeros.
func (b *Build) NeedRecentRefs() { b.recentRefs = true }

// Param returns the scenario-level parameter name, or def when the scenario
// does not set it. Factories must read every knob they honour through Param:
// the run records which names were consumed and rejects a scenario whose
// params include names no selected component read, so a misspelled or
// misapplied knob fails instead of silently running the default.
func (b *Build) Param(name string, def float64) float64 {
	if b.usedParams == nil {
		b.usedParams = make(map[string]bool)
	}
	b.usedParams[name] = true
	if v, ok := b.Scenario.Params[name]; ok {
		return v
	}
	return def
}

// IntParam is Param for count-valued knobs: it rejects non-integral and
// non-positive values instead of silently truncating them, keeping the
// fail-loud params contract.
func (b *Build) IntParam(name string, def int) (int, error) {
	v := b.Param(name, float64(def))
	if v != math.Trunc(v) || v < 1 {
		return 0, fmt.Errorf("dcsim: param %q must be a positive integer, got %v", name, v)
	}
	return int(v), nil
}

// unusedParamErr reports the scenario params no factory consumed.
func (b *Build) unusedParamErr() error {
	var unused []string
	for name := range b.Scenario.Params {
		if !b.usedParams[name] {
			unused = append(unused, name)
		}
	}
	if len(unused) == 0 {
		return nil
	}
	sort.Strings(unused)
	sc := b.Scenario
	return fmt.Errorf("dcsim: params %v not read by policy %q, governor %q or predictor %q",
		unused, sc.Policy, sc.Governor, sc.Predictor)
}

// Matrix returns the run's shared streaming cost source, creating it on
// first use. Run wires it into the simulator's monitoring loop whenever any
// component asked for it, so every component that calls Matrix reads the
// same statistics the simulator feeds. A matrix for NVMs VMs larger than
// maxMatrixBytes is never allocated: Matrix hands out an empty one, and
// the run fails with the bound's error before it feeds anything.
func (b *Build) Matrix() model.CostSource {
	if b.matrix == nil {
		n, pctl := b.NVMs, b.refPctl()
		if b.matrixErr = costSourceErr(n, pctl); b.matrixErr != nil {
			n = 0
		}
		b.matrix = newCostSource(n, pctl)
	}
	return b.matrix
}

// refPctl is the reference percentile of the cost matrix and of the
// jointvm policy's joint sizing: the scenario's, or exact peaks when it is
// unset.
func (b *Build) refPctl() float64 {
	if b.Scenario.Pctl == 0 {
		return 1
	}
	return b.Scenario.Pctl
}

// Policy is the placement-policy contract model.Policy, re-exported so
// registrants can name it through the façade.
type Policy = model.Policy

// Governor is the frequency-governor contract model.Governor.
type Governor = model.Governor

// Predictor is the workload-predictor contract model.Predictor.
type Predictor = model.Predictor

// PolicyFactory builds a placement policy for one run.
type PolicyFactory func(b *Build) (model.Policy, error)

// GovernorFactory builds a frequency governor for one run.
type GovernorFactory func(b *Build) (model.Governor, error)

// PredictorFactory builds a workload predictor for one run.
type PredictorFactory func(b *Build) (model.Predictor, error)

// ServerModel pairs a capacity spec with its power model.
type ServerModel struct {
	Spec  model.ServerSpec
	Power model.PowerModel
}

// RegisterPolicy adds a placement policy under a unique name; it panics on
// empty or duplicate names (registration is init-time configuration).
func RegisterPolicy(name string, f PolicyFactory) { policyReg.Register(name, f) }

// RegisterGovernor adds a frequency governor under a unique name.
func RegisterGovernor(name string, f GovernorFactory) { governorReg.Register(name, f) }

// RegisterPredictor adds a workload predictor under a unique name.
func RegisterPredictor(name string, f PredictorFactory) { predictorReg.Register(name, f) }

// RegisterServer adds a server model under a unique name.
func RegisterServer(name string, m ServerModel) { serverReg.Register(name, m) }

// Policies lists the registered placement-policy names, sorted.
func Policies() []string { return policyReg.Names() }

// Governors lists the registered governor names, sorted.
func Governors() []string { return governorReg.Names() }

// Predictors lists the registered predictor names, sorted.
func Predictors() []string { return predictorReg.Names() }

// Servers lists the registered server-model names, sorted.
func Servers() []string { return serverReg.Names() }

// NewPolicy instantiates a registered policy by name for the given build.
func NewPolicy(name string, b *Build) (model.Policy, error) {
	f, err := policyReg.Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(b)
}

// NewGovernor instantiates a registered governor by name for the given build.
func NewGovernor(name string, b *Build) (model.Governor, error) {
	f, err := governorReg.Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(b)
}

// NewPredictor instantiates a registered predictor by name for the given build.
func NewPredictor(name string, b *Build) (model.Predictor, error) {
	f, err := predictorReg.Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(b)
}

// LookupServer returns a registered server model by name.
func LookupServer(name string) (ServerModel, error) { return serverReg.Lookup(name) }
