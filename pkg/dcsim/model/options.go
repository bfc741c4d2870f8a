package model

// RunOptions is the serializable scale configuration of the experiment
// drivers behind pkg/dcsim/experiments: every artifact Runner — in-tree or
// registered by another module — receives one. The zero value of each field
// means "use the artifact's default"; experiments.Full and
// experiments.Quick in pkg/dcsim/experiments build the two standard
// operating points.
type RunOptions struct {
	// WebSearchDuration is the simulated seconds per Setup-1 run.
	WebSearchDuration float64 `json:"web_search_duration,omitempty"`
	// VMs, Groups, Hours, and Seed shape the Setup-2 datacenter trace
	// generator: the number of demand traces, the number of correlated
	// service groups they form, the horizon, and the generator seed.
	VMs    int   `json:"vms,omitempty"`
	Groups int   `json:"groups,omitempty"`
	Hours  int   `json:"hours,omitempty"`
	Seed   int64 `json:"seed,omitempty"`
	// PeriodSamples is tperiod in samples.
	PeriodSamples int `json:"period_samples,omitempty"`
	// MaxServers is the Setup-2 server pool size.
	MaxServers int `json:"max_servers,omitempty"`
	// CacheWarmKI and CacheMeasKI are the warm-up/measure horizons of
	// Table I in kilo-instructions.
	CacheWarmKI int `json:"cache_warm_ki,omitempty"`
	CacheMeasKI int `json:"cache_meas_ki,omitempty"`
	// Fig3Groups is the number of random VM groups sampled for Fig. 3.
	Fig3Groups int `json:"fig3_groups,omitempty"`
	// Workers bounds the sweep-engine parallelism of Table II, the
	// extended table and the ablation studies; 0 runs them serially.
	// Results are identical at any setting — the sweep merge is
	// deterministic.
	Workers int `json:"workers,omitempty"`
}
