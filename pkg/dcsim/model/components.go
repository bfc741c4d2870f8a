package model

// Governor chooses server frequency levels.
type Governor interface {
	Name() string
	// PlanStatic returns the per-server level at placement time, from
	// the predicted per-VM references for the coming period.
	PlanStatic(p *Placement, refs []float64, spec ServerSpec) []float64
	// Rescale returns the level for one server for the next rescale
	// interval. recentRefs holds the per-VM references measured over the
	// recent window, indexed by VM; aggPeak is the server's aggregate
	// demand peak over the same window (what a per-server DVFS governor
	// observes). A run measures recentRefs only when the governor's
	// factory declared it (dcsim's Build.NeedRecentRefs); otherwise it is
	// one slice of zeros, one per VM, for the whole run.
	Rescale(members []int, recentRefs []float64, aggPeak float64, spec ServerSpec) float64
}

// Predictor forecasts the next per-period reference utilization from the
// history of past ones (oldest first). Implementations must return a
// non-negative value and must cope with short histories.
type Predictor interface {
	// Predict returns the forecast for the next period. An empty history
	// yields 0 (callers typically fall back to a bootstrap placement).
	Predict(history []float64) float64
	Name() string
}

// PairCostFunc returns the Eqn-1 correlation cost between VMs i and j.
// Implementations must be symmetric and return 1 for i == j.
type PairCostFunc func(i, j int) float64

// CostSource maintains streaming pairwise correlation costs for a set of
// VMs, fed simultaneous utilization samples, one value per VM each. It is
// the statistic a correlation-aware policy and governor share: the
// simulator feeds the same instance every sample (the UPDATE phase of the
// paper's Fig. 2), a chunk of samples per Add, resets it at
// monitoring-window boundaries, and both components read Cost from it at
// decision time. A chunk ends wherever a component reads, so every read
// sees the source fed through the sample before it.
type CostSource interface {
	// N returns the number of VMs tracked.
	N() int
	// Samples returns how many samples the current window has seen.
	Samples() int
	// Cost returns the pairwise cost between VMs i and j: at least ~1,
	// growing as the VMs' peaks interleave (higher cost = lower
	// correlation = better co-location candidates). While the window is
	// cold it must return 1 — assume perfect correlation, the
	// conservative choice.
	Cost(i, j int) float64
	// Add feeds one or more whole samples, sample-major: sample[t*N()+i]
	// is VM i's value in the t-th, and Samples rises by their count. The
	// length must be a positive multiple of N(); with N() = 0 it is 0,
	// and the call counts one sample. An implementation whose result
	// depends on the samples' order takes them in order.
	Add(sample []float64)
	// Reset starts a new monitoring window.
	Reset()
}
