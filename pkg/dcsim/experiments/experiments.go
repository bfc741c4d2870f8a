// Package experiments exposes the paper's evaluation artifacts (figures,
// tables, ablations) through a string-keyed registry, the same selection
// style as pkg/dcsim's component registries. It sits beside the façade —
// rather than inside it — because the experiment drivers themselves
// assemble their runs through pkg/dcsim.
//
// A Runner takes the serializable contract type model.RunOptions, so an
// artifact implemented in another Go module can call Register and be
// selected by name exactly like the built-ins.
package experiments

import (
	"fmt"

	"repro/internal/exp"
	"repro/internal/reg"
	"repro/pkg/dcsim/model"
)

// Runner regenerates one artifact at the given scale.
type Runner func(o model.RunOptions) (fmt.Stringer, error)

var registry = reg.New[Runner]("experiments", "artifact")

// Register adds an artifact under a unique name; it panics on empty or
// duplicate names.
func Register(name string, r Runner) { registry.Register(name, r) }

// Names lists the registered artifacts in registration order (the paper's
// presentation order for the built-ins).
func Names() []string { return registry.Ordered() }

// Full returns the options reproducing the paper's published setups.
func Full() model.RunOptions { return exp.Full() }

// Quick returns the options with every horizon shrunk for smoke runs.
func Quick() model.RunOptions { return exp.Quick() }

// Run regenerates one artifact by name. quick shrinks horizons for smoke
// runs while exercising the same code paths.
func Run(name string, quick bool) (fmt.Stringer, error) {
	o := Full()
	if quick {
		o = Quick()
	}
	return RunOptions(name, o)
}

// RunOptions regenerates one artifact with explicit options — the way to
// set sweep-engine parallelism (RunOptions.Workers) for Table II, the
// extended table and the ablation studies. Results do not depend on the
// worker count.
func RunOptions(name string, o model.RunOptions) (fmt.Stringer, error) {
	r, err := registry.Lookup(name)
	if err != nil {
		return nil, err
	}
	return r(o)
}

// ablation adapts an ablation study to the Runner signature.
func ablation(f func(model.RunOptions) (*exp.AblationResult, error)) Runner {
	return func(o model.RunOptions) (fmt.Stringer, error) { return f(o) }
}

func init() {
	Register("fig1", func(o model.RunOptions) (fmt.Stringer, error) { return exp.Fig1(o) })
	Register("tablei", func(o model.RunOptions) (fmt.Stringer, error) { return exp.TableI(o) })
	Register("fig3", func(o model.RunOptions) (fmt.Stringer, error) { return exp.Fig3(o) })
	Register("fig4", func(o model.RunOptions) (fmt.Stringer, error) { return exp.Fig4(o) })
	Register("fig5", func(o model.RunOptions) (fmt.Stringer, error) { return exp.Fig5(o) })
	Register("tableiia", func(o model.RunOptions) (fmt.Stringer, error) { return exp.TableII(o, false) })
	Register("tableiib", func(o model.RunOptions) (fmt.Stringer, error) { return exp.TableII(o, true) })
	Register("fig6", func(o model.RunOptions) (fmt.Stringer, error) { return exp.Fig6(o) })
	Register("extended", func(o model.RunOptions) (fmt.Stringer, error) { return exp.TableIIExtended(o) })
	Register("gating", func(o model.RunOptions) (fmt.Stringer, error) { return exp.PowerGating(o) })
	Register("a1", ablation(exp.AblationThreshold))
	Register("a2", ablation(exp.AblationReference))
	Register("a3", ablation(exp.AblationPredictor))
	Register("a4", ablation(exp.AblationMetric))
	Register("a5", ablation(exp.AblationCorrelationStructure))
	Register("a6", ablation(exp.AblationMatrixWindow))
	Register("a7", ablation(exp.AblationLevels))
	Register("a8", ablation(exp.AblationOracle))
}

// Ablations lists the ablation-study artifact names in order.
func Ablations() []string {
	return []string{"a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8"}
}

// Artifacts lists the paper's figure/table artifact names in order (the
// non-ablation built-ins).
func Artifacts() []string {
	return []string{"fig1", "tablei", "fig3", "fig4", "fig5", "tableiia", "tableiib", "fig6", "extended", "gating"}
}
