package dcsim

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"

	"repro/internal/httpjson"
	"repro/pkg/dcsim/model"
)

// Workload describes the VM demand-trace source of a Scenario: a kind from
// the workload-kind registry plus the fields a backend needs to reproduce
// the traces deterministically. It is the contract type model.Workload.
type Workload = model.Workload

// Scenario is the JSON-serializable description of one simulation run: the
// server model, workload source, policy/governor/predictor registry names,
// and horizon parameters. Zero values are filled by defaults at Run time,
// so a Scenario parsed from a sparse config file behaves like one built
// with New and options.
type Scenario struct {
	// Name labels the run in output; it does not affect simulation.
	Name string `json:"name,omitempty"`
	// Server is the server-model registry name (default "xeon-e5410").
	Server string `json:"server"`
	// Workload is the VM demand-trace source.
	Workload Workload `json:"workload"`
	// Policy is the placement-policy registry name (see Policies).
	Policy string `json:"policy"`
	// Governor is the frequency-governor registry name (see Governors).
	// Empty pairs with the policy: "eqn4" for the correlation-aware
	// policy, the baselines' "worst-case" otherwise — mirroring the
	// paper's setups, so a sparse config naming only a baseline policy
	// is not silently granted the correlation-aware frequency planner.
	Governor string `json:"governor"`
	// Predictor is the predictor registry name (see Predictors).
	Predictor string `json:"predictor"`
	// MaxServers is the server pool size.
	MaxServers int `json:"max_servers"`
	// PeriodSamples is tperiod in samples (paper: 720 = 1 h of 5-s samples).
	PeriodSamples int `json:"period_samples"`
	// RescaleEvery enables dynamic v/f scaling every so many samples
	// (paper: 12 = 1 min), fewer than PeriodSamples; 0 keeps levels
	// static within a period.
	RescaleEvery int `json:"rescale_every,omitempty"`
	// Pctl is the reference percentile for û (>= 1 = peak).
	Pctl float64 `json:"pctl"`
	// OffPctl is the off-peak percentile PCP provisions with and
	// extracts its envelopes against, as in Verma et al. (0 -> 0.9).
	// Validate rejects a negative or non-finite Pctl, and an OffPctl
	// outside [0, 1).
	OffPctl float64 `json:"off_pctl,omitempty"`
	// CumulativeMatrix keeps correlation statistics across period
	// boundaries instead of resetting each monitoring window.
	CumulativeMatrix bool `json:"cumulative_matrix,omitempty"`
	// Oracle replaces the predictor with perfect next-period knowledge.
	Oracle bool `json:"oracle,omitempty"`
	// Params are scenario-level component parameters, keyed by name and
	// read by the component factories at Run time (see Build.Param):
	// "thcost" and "alpha" tune the correlation-aware allocator,
	// "ma_k"/"ewma_alpha"/"maxof_k" tune the matching predictors. A param
	// no selected component reads is an error, so config typos fail
	// instead of silently running the defaults.
	Params map[string]float64 `json:"params,omitempty"`
}

// DefaultScenario is the paper's Setup-2 operating point: 40 VMs in 8
// service groups over 24 h, consolidated hourly onto at most 20 Xeon
// servers with the correlation-aware policy and Eqn-4 governor.
func DefaultScenario() Scenario {
	return Scenario{
		Server: "xeon-e5410",
		Workload: Workload{
			Kind:   "datacenter",
			VMs:    40,
			Groups: 8,
			Hours:  24,
			Seed:   1,
		},
		Policy:        "corr-aware",
		Governor:      "eqn4",
		Predictor:     "last-value",
		MaxServers:    20,
		PeriodSamples: 720,
		Pctl:          1,
	}
}

// Option mutates a Scenario under construction.
type Option func(*Scenario)

// New builds a Scenario from DefaultScenario with the given options applied.
func New(opts ...Option) Scenario {
	sc := DefaultScenario()
	for _, o := range opts {
		o(&sc)
	}
	return sc
}

// WithName labels the scenario.
func WithName(name string) Option { return func(s *Scenario) { s.Name = name } }

// WithServer selects the server model by registry name.
func WithServer(name string) Option { return func(s *Scenario) { s.Server = name } }

// WithPolicy selects the placement policy by registry name.
func WithPolicy(name string) Option { return func(s *Scenario) { s.Policy = name } }

// WithGovernor selects the frequency governor by registry name.
func WithGovernor(name string) Option { return func(s *Scenario) { s.Governor = name } }

// WithPredictor selects the workload predictor by registry name.
func WithPredictor(name string) Option { return func(s *Scenario) { s.Predictor = name } }

// WithWorkload replaces the whole workload description.
func WithWorkload(w Workload) Option { return func(s *Scenario) { s.Workload = w } }

// WithWorkloadKind selects the workload backend by registry kind.
func WithWorkloadKind(kind string) Option { return func(s *Scenario) { s.Workload.Kind = kind } }

// WithTracePath points a file-backed workload kind (e.g. "trace-dir") at
// its data directory.
func WithTracePath(path string) Option { return func(s *Scenario) { s.Workload.Path = path } }

// WithWorkloadOption sets one kind-scoped workload backend option (e.g.
// "cache_dir" for "trace-obj"), copy-on-write like WithParam. A key the
// selected backend does not read fails validation — the same unread-key
// contract scenario params follow.
func WithWorkloadOption(key, value string) Option {
	return func(s *Scenario) { s.Workload.SetOption(key, value) }
}

// WithVMs sets the workload's VM count.
func WithVMs(n int) Option { return func(s *Scenario) { s.Workload.VMs = n } }

// WithGroups sets the workload's correlated-group count.
func WithGroups(n int) Option { return func(s *Scenario) { s.Workload.Groups = n } }

// WithHours sets the workload horizon in hours.
func WithHours(h int) Option { return func(s *Scenario) { s.Workload.Hours = h } }

// WithSeed sets the workload generator seed.
func WithSeed(seed int64) Option { return func(s *Scenario) { s.Workload.Seed = seed } }

// WithMaxServers sets the server pool size.
func WithMaxServers(n int) Option { return func(s *Scenario) { s.MaxServers = n } }

// WithPeriodSamples sets tperiod in samples.
func WithPeriodSamples(n int) Option { return func(s *Scenario) { s.PeriodSamples = n } }

// WithRescaleEvery enables dynamic v/f scaling every n samples (0 = static).
func WithRescaleEvery(n int) Option { return func(s *Scenario) { s.RescaleEvery = n } }

// WithPctl sets the reference percentile for û.
func WithPctl(p float64) Option { return func(s *Scenario) { s.Pctl = p } }

// WithOffPctl sets PCP's off-peak percentile: the level it provisions
// each VM at and the threshold of the VM's envelope. It must lie below 1
// (0 = the default 0.9).
func WithOffPctl(p float64) Option { return func(s *Scenario) { s.OffPctl = p } }

// WithCumulativeMatrix keeps correlation statistics across periods.
func WithCumulativeMatrix(on bool) Option { return func(s *Scenario) { s.CumulativeMatrix = on } }

// WithOracle enables perfect next-period prediction.
func WithOracle(on bool) Option { return func(s *Scenario) { s.Oracle = on } }

// WithParam sets one scenario-level component parameter. The params map is
// copied on first write, so scenarios derived from a shared base (as sweep
// grids do) never alias each other's parameters.
func WithParam(name string, value float64) Option {
	return func(s *Scenario) { s.SetParam(name, value) }
}

// SetParam sets one component parameter, copy-on-write (see WithParam).
func (s *Scenario) SetParam(name string, value float64) {
	params := make(map[string]float64, len(s.Params)+1)
	for k, v := range s.Params {
		params[k] = v
	}
	params[name] = value
	s.Params = params
}

// withDefaults fills zero-valued fields from DefaultScenario, so sparse
// JSON configs and hand-built literals get the same sane baseline.
func (s Scenario) withDefaults() Scenario {
	d := DefaultScenario()
	if s.Server == "" {
		s.Server = d.Server
	}
	if s.Workload.Kind == "" {
		s.Workload.Kind = d.Workload.Kind
	}
	if s.Workload.VMs == 0 {
		s.Workload.VMs = d.Workload.VMs
	}
	if s.Workload.Groups == 0 {
		s.Workload.Groups = d.Workload.Groups
	}
	if s.Workload.Hours == 0 {
		s.Workload.Hours = d.Workload.Hours
	}
	if s.Workload.Seed == 0 {
		s.Workload.Seed = d.Workload.Seed
	}
	if s.Policy == "" {
		s.Policy = d.Policy
	}
	if s.Governor == "" {
		if s.Policy == "corr-aware" || s.Policy == "corr" {
			s.Governor = "eqn4"
		} else {
			s.Governor = "worst-case"
		}
	}
	if s.Predictor == "" {
		s.Predictor = d.Predictor
	}
	if s.MaxServers == 0 {
		s.MaxServers = d.MaxServers
	}
	if s.PeriodSamples == 0 {
		s.PeriodSamples = d.PeriodSamples
	}
	if s.Pctl == 0 {
		s.Pctl = d.Pctl
	}
	return s
}

// Normalized returns the scenario with every unset field filled by its
// default — the exact configuration Run will execute, useful for echoing
// the effective parameters of a sparse scenario.
func (s Scenario) Normalized() Scenario { return s.withDefaults() }

// maxServersLimit bounds Scenario.MaxServers. The pool size sizes the
// run's per-server residency tables before any work is done, so an
// unchecked value from an untrusted scenario (a job grid, a worker's /run
// body) could demand gigabytes up front. At 1<<16 servers the tables stay
// under ~10 MB; the repository's largest scenario uses 1,000.
const maxServersLimit = 1 << 16

// Validate reports structural problems a registry lookup would not catch.
func (s Scenario) Validate() error {
	if s.Workload.VMs < 1 {
		return errors.New("dcsim: workload needs at least one VM")
	}
	if s.Workload.Groups < 1 {
		return errors.New("dcsim: workload needs at least one group")
	}
	if s.Workload.Hours < 1 {
		return errors.New("dcsim: workload needs at least one hour")
	}
	if s.MaxServers < 1 {
		return errors.New("dcsim: MaxServers must be at least 1")
	}
	if s.MaxServers > maxServersLimit {
		return fmt.Errorf("dcsim: MaxServers %d exceeds the limit of %d", s.MaxServers, maxServersLimit)
	}
	if s.PeriodSamples < 1 {
		return errors.New("dcsim: PeriodSamples must be at least 1")
	}
	if s.RescaleEvery < 0 {
		return errors.New("dcsim: RescaleEvery must be non-negative")
	}
	// An interval of a whole period or more never falls inside one, so
	// the levels would stay static under a Result that reports Dynamic.
	if s.RescaleEvery > 0 && s.RescaleEvery >= s.PeriodSamples {
		return fmt.Errorf("dcsim: RescaleEvery %d must be below PeriodSamples %d (0 = static levels)",
			s.RescaleEvery, s.PeriodSamples)
	}
	// A negative percentile would size every VM by its window minimum, and
	// a non-finite one has no rank; 0 keeps meaning "default".
	if err := checkPercentile("Pctl", s.Pctl); err != nil {
		return err
	}
	if err := checkPercentile("OffPctl", s.OffPctl); err != nil {
		return err
	}
	// An off-peak at or above the peak is no off-peak; the simulator
	// would run PCP at the default instead of the value reported.
	if s.OffPctl >= 1 {
		return fmt.Errorf("dcsim: OffPctl is %v, want a value below 1 (0 = default)", s.OffPctl)
	}
	for name, v := range s.Params {
		if name == "" {
			return errors.New("dcsim: empty param name")
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dcsim: param %q is %v", name, v)
		}
	}
	// Option values are backend-validated (CheckWorkload); only the keys
	// have a structural rule.
	for key := range s.Workload.Options {
		if key == "" {
			return errors.New("dcsim: empty workload option key")
		}
	}
	return nil
}

func checkPercentile(name string, v float64) error {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("dcsim: %s is %v, want a finite value >= 0 (0 = default)", name, v)
	}
	return nil
}

// ParseScenario decodes a JSON scenario, rejecting unknown fields and
// anything after the scenario's object but white space, and filling unset
// fields with defaults.
func ParseScenario(data []byte) (Scenario, error) {
	var sc Scenario
	if err := httpjson.DecodeStrict(bytes.NewReader(data), &sc); err != nil {
		return Scenario{}, fmt.Errorf("dcsim: parse scenario: %w", err)
	}
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// LoadScenario reads a JSON scenario file via ParseScenario.
func LoadScenario(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("dcsim: load scenario: %w", err)
	}
	return ParseScenario(data)
}
