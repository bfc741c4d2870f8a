package dcsim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/place"
	"repro/internal/sim"
	"repro/pkg/dcsim/model"
)

// smallOpts is a fast two-period scenario shared by the tests.
func smallOpts() []Option {
	return []Option{
		WithVMs(8),
		WithGroups(2),
		WithHours(2),
		WithMaxServers(6),
		WithSeed(3),
	}
}

// TestGoldenDeterminism: the same Scenario and seed must yield
// byte-identical results, including through a JSON round trip of the
// scenario itself (the config-file path).
func TestGoldenDeterminism(t *testing.T) {
	sc := New(smallOpts()...)
	first, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}

	again, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, got) {
		t.Fatalf("re-running the same scenario changed the result:\n%s\nvs\n%s", golden, got)
	}

	// Round-trip the scenario through its JSON form.
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	viaJSON, err := Run(context.Background(), parsed)
	if err != nil {
		t.Fatal(err)
	}
	got, err = json.Marshal(viaJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, got) {
		t.Fatalf("JSON-round-tripped scenario changed the result:\n%s\nvs\n%s", golden, got)
	}
}

func TestRegistryNames(t *testing.T) {
	for _, want := range []string{"corr-aware", "corr", "ffd", "bfd", "pcp", "jointvm"} {
		if _, err := NewPolicy(want, &Build{Scenario: DefaultScenario(), NVMs: 4}); err != nil {
			t.Errorf("policy %q: %v", want, err)
		}
	}
	for _, want := range []string{"eqn4", "corr-aware", "worst-case"} {
		if _, err := NewGovernor(want, &Build{Scenario: DefaultScenario(), NVMs: 4}); err != nil {
			t.Errorf("governor %q: %v", want, err)
		}
	}
	for _, want := range []string{"last-value", "moving-average", "ewma", "max-of"} {
		if _, err := NewPredictor(want, &Build{Scenario: DefaultScenario(), NVMs: 4}); err != nil {
			t.Errorf("predictor %q: %v", want, err)
		}
	}
	if _, err := LookupServer("xeon-e5410"); err != nil {
		t.Errorf("server xeon-e5410: %v", err)
	}
}

func TestRegistryUnknownName(t *testing.T) {
	b := &Build{Scenario: DefaultScenario(), NVMs: 4}
	if _, err := NewPolicy("nope", b); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("unknown policy error = %v, want mention of the name", err)
	}
	// The error should list the known names so flag typos are self-serve.
	if _, err := NewGovernor("nope", b); err == nil || !strings.Contains(err.Error(), "worst-case") {
		t.Errorf("unknown governor error = %v, want the known names listed", err)
	}
	if _, err := NewPredictor("nope", b); err == nil {
		t.Error("unknown predictor did not error")
	}
	if _, err := LookupServer("nope"); err == nil {
		t.Error("unknown server did not error")
	}
	if _, err := Run(context.Background(), New(WithPolicy("nope"))); err == nil {
		t.Error("Run with unknown policy did not error")
	}
	if _, err := RunWebSearch(WebSearchScenario{Placement: "nope"}); err == nil {
		t.Error("unknown web-search placement did not error")
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate RegisterPolicy did not panic")
		}
	}()
	RegisterPolicy("bfd", func(*Build) (Policy, error) { return nil, nil })
}

// customPolicies numbers TestRegisterCustomPolicy's registrations: the
// registry is process-global and rejects duplicates, so each run of the
// test (-count, a -cpu list) registers its own name.
var customPolicies atomic.Int64

func TestRegisterCustomPolicy(t *testing.T) {
	name := fmt.Sprintf("ffd-custom-test-%d", customPolicies.Add(1))
	RegisterPolicy(name, func(*Build) (Policy, error) { return place.FFD{}, nil })
	res, err := Run(context.Background(), New(append(smallOpts(),
		WithPolicy(name), WithGovernor("worst-case"))...))
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "FFD" {
		t.Errorf("custom policy ran as %q, want FFD", res.Policy)
	}
	found := false
	for _, n := range Policies() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Error("Policies() does not list the custom registration")
	}
}

// TestBuiltinsDeclareWhatTheyRead: every built-in policy and governor
// that reads the off-peak or the rescale references declares it, so Run,
// which skips what nothing declared, matches a simulation of the same
// components that measures both, byte for byte.
func TestBuiltinsDeclareWhatTheyRead(t *testing.T) {
	ctx := context.Background()
	base := New(WithVMs(16), WithGroups(4), WithHours(4), WithMaxServers(16), WithSeed(5)).withDefaults()
	ds, err := GenerateTraces(base.Workload)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"corr-aware", "ffd", "bfd", "pcp", "jointvm"} {
		for _, governor := range []string{"eqn4", "worst-case"} {
			for _, every := range []int{0, 12} {
				name := fmt.Sprintf("%s/%s/every=%d", policy, governor, every)
				sc := base
				sc.Policy, sc.Governor, sc.RescaleEvery = policy, governor, every
				res, err := Run(ctx, sc)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				cfg, err := assemble(ctx, len(ds.Fine), sc)
				if err != nil {
					t.Fatal(err)
				}
				cfg.SkipOffPeak, cfg.SkipRecentRefs = false, false
				want, err := sim.Run(model.VMsFromSeries(ds.Names, ds.Fine), cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got, want := fmt.Sprintf("%+v", res), fmt.Sprintf("%+v", want); got != want {
					t.Errorf("%s: Run gave\n%s\nmeasuring both inputs gives\n%s", name, got, want)
				}
			}
		}
	}
}

// TestJointVMSizesAtTheScenarioPctl: the jointvm policy sizes each
// super-VM at the scenario's reference percentile, as place.JointVM with
// that Pctl does in a simulation built by hand, and not at the peak.
func TestJointVMSizesAtTheScenarioPctl(t *testing.T) {
	ctx := context.Background()
	sc := New(WithVMs(16), WithGroups(4), WithHours(6), WithMaxServers(16), WithSeed(5),
		WithPolicy("jointvm"), WithPctl(0.9)).withDefaults()
	res, err := Run(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := GenerateTraces(sc.Workload)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p model.Policy) string {
		cfg, err := assemble(ctx, len(ds.Fine), sc)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policy = p
		r, err := sim.Run(model.VMsFromSeries(ds.Names, ds.Fine), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", r)
	}
	got := fmt.Sprintf("%+v", res)
	if want := run(place.JointVM{Pctl: 0.9}); got != want {
		t.Errorf("Run gave\n%s\nJointVM{Pctl: 0.9} gives\n%s", got, want)
	}
	if got == run(place.JointVM{}) {
		t.Error("Run sized the super-VMs at their peaks")
	}
}

// TestObserverStreams: a full run must deliver one OnSample per simulated
// sample and one OnPeriod per period, in order.
func TestObserverStreams(t *testing.T) {
	sc := New(smallOpts()...)
	samples, periods := 0, 0
	lastK := -1
	obs := observerPair{
		sample: func(s Sample) {
			if s.K <= lastK {
				t.Fatalf("samples out of order: %d after %d", s.K, lastK)
			}
			lastK = s.K
			samples++
		},
		period: func(Period) { periods++ },
	}
	res, err := Run(context.Background(), sc, obs)
	if err != nil {
		t.Fatal(err)
	}
	wantPeriods := len(res.Periods)
	if periods != wantPeriods {
		t.Errorf("OnPeriod fired %d times, want %d", periods, wantPeriods)
	}
	if want := wantPeriods * sc.PeriodSamples; samples != want {
		t.Errorf("OnSample fired %d times, want %d", samples, want)
	}
}

// TestObserverCancellation: cancelling the context mid-run stops the
// simulation early and returns the partial result alongside the error.
func TestObserverCancellation(t *testing.T) {
	sc := New(smallOpts()...)
	full, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Periods) < 2 {
		t.Fatalf("scenario too short for a cancellation test: %d periods", len(full.Periods))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Run(ctx, sc, PeriodFunc(func(Period) { cancel() }))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	if len(res.Periods) == 0 || len(res.Periods) >= len(full.Periods) {
		t.Errorf("partial result has %d periods, want in [1, %d)", len(res.Periods), len(full.Periods))
	}
	if res.EnergyJ <= 0 {
		t.Error("partial result lost its accumulated energy")
	}
}

// TestParseScenarioRejectsTrailingData: a scenario file holds one JSON
// object. A second value or junk after it is a parse error; white space
// and a final newline are not.
func TestParseScenarioRejectsTrailingData(t *testing.T) {
	for _, in := range []string{`{"policy":"bfd"} {"policy":"pcp"} junk`, `{"policy":"bfd"}}`, `{"policy":"bfd"} 1`} {
		if _, err := ParseScenario([]byte(in)); err == nil || !strings.HasPrefix(err.Error(), "dcsim: parse scenario: ") {
			t.Errorf("ParseScenario(%q) = %v, want a parse error", in, err)
		}
	}
	if _, err := ParseScenario([]byte("{\"policy\":\"bfd\"}\n \t\n")); err != nil {
		t.Errorf("scenario followed by white space: %v", err)
	}
}

func TestParseScenarioRejectsUnknownFields(t *testing.T) {
	if _, err := ParseScenario([]byte(`{"policy": "bfd", "typo_field": 1}`)); err == nil {
		t.Error("unknown field did not error")
	}
	sc, err := ParseScenario([]byte(`{"policy": "bfd"}`))
	if err != nil {
		t.Fatal(err)
	}
	// An unset governor pairs with the named policy: baselines get the
	// correlation-oblivious worst-case, not the paper's eqn4.
	if sc.Policy != "bfd" || sc.Governor != "worst-case" || sc.MaxServers != 20 {
		t.Errorf("sparse scenario not filled with defaults: %+v", sc)
	}
	corr, err := ParseScenario([]byte(`{"policy": "corr-aware"}`))
	if err != nil {
		t.Fatal(err)
	}
	if corr.Governor != "eqn4" {
		t.Errorf("corr-aware scenario paired governor %q, want eqn4", corr.Governor)
	}
	// The seed default matters for reproducibility: a sparse config must
	// generate the same traces as New().
	if sc.Workload.Seed != DefaultScenario().Workload.Seed {
		t.Errorf("sparse scenario seed = %d, want the default %d",
			sc.Workload.Seed, DefaultScenario().Workload.Seed)
	}
}

// TestMaxServersBounded: max_servers sizes the residency tables before any
// work is done, so an untrusted scenario asking for 2e9 servers must fail
// validation instead of running the process out of memory.
func TestMaxServersBounded(t *testing.T) {
	for _, n := range []int{1<<16 + 1, 2e9} {
		data := []byte(fmt.Sprintf(`{"workload":{"vms":4,"hours":1},"max_servers":%d}`, n))
		if _, err := ParseScenario(data); err == nil || !strings.Contains(err.Error(), "MaxServers") {
			t.Errorf("ParseScenario(max_servers=%d) err = %v, want a MaxServers error", n, err)
		}
		sc := New(WithVMs(4), WithHours(1), WithMaxServers(n))
		if err := CheckScenario(sc); err == nil || !strings.Contains(err.Error(), "MaxServers") {
			t.Errorf("CheckScenario(MaxServers=%d) err = %v, want a MaxServers error", n, err)
		}
	}
	data := []byte(fmt.Sprintf(`{"workload":{"vms":4,"hours":1},"max_servers":%d}`, 1<<16))
	sc, err := ParseScenario(data)
	if err != nil {
		t.Fatalf("ParseScenario(max_servers=1<<16): %v", err)
	}
	if err := CheckScenario(sc); err != nil {
		t.Fatalf("CheckScenario(MaxServers=1<<16): %v", err)
	}
}

// TestHoursOverflowRejected: a synthetic horizon longer than a
// time.Duration holds used to wrap negative and panic the generator, which
// killed `dcsim serve` from a job goroutine. Validation and Run must both
// answer with a dcsim: error instead.
func TestHoursOverflowRejected(t *testing.T) {
	for _, c := range []struct {
		kind  string
		hours int
	}{
		{"datacenter", 2562048},
		{"datacenter", 3000000},
		{"uncorrelated", 2562048},
	} {
		name := fmt.Sprintf("%s/%d", c.kind, c.hours)
		sc := New(WithVMs(4), WithHours(c.hours), WithWorkloadKind(c.kind))
		if err := CheckScenario(sc); err == nil || !strings.HasPrefix(err.Error(), "dcsim: ") ||
			!strings.Contains(err.Error(), "hours") {
			t.Errorf("%s: CheckScenario err = %v, want a dcsim: error naming hours", name, err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: Run panicked: %v", name, r)
				}
			}()
			if _, err := Run(context.Background(), sc); err == nil {
				t.Errorf("%s: Run accepted it", name)
			}
		}()
	}
	// The longest representable horizon passes the overflow check and
	// fails only on the synthetic size bound (TestSyntheticSizeBounded).
	if err := CheckScenario(New(WithVMs(4), WithHours(2562047))); err == nil ||
		strings.Contains(err.Error(), "time.Duration") || !strings.Contains(err.Error(), "samples") {
		t.Errorf("hours 2562047: %v, want only the sample bound's error", err)
	}
}

// TestSyntheticSizeBounded: the synthetic generator holds every group's
// coarse profile and a run every VM's fine series, so a tiny scenario
// could ask for hundreds of gigabytes. Validation rejects a workload over
// maxSynthSamples with a dcsim: error naming the count and the limit,
// counted after defaults; nothing here is run, so nothing is allocated.
func TestSyntheticSizeBounded(t *testing.T) {
	for _, c := range []struct {
		name               string
		kind               string
		vms, groups, hours int
		samples            string
	}{
		{"groups", "datacenter", 4, 100000000, 24, "28800069120"},
		{"hours", "datacenter", 40, 0, 100000, "2889600000"},
		{"vms", "datacenter", 100000000, 0, 1, "72000000096"},
		// uncorrelated holds one group profile per VM.
		{"uncorrelated", "uncorrelated", 100000000, 0, 1, "73200000000"},
	} {
		sc := New(WithWorkloadKind(c.kind), WithVMs(c.vms), WithGroups(c.groups), WithHours(c.hours))
		err := CheckScenario(sc)
		if err == nil || !strings.HasPrefix(err.Error(), "dcsim: ") ||
			!strings.Contains(err.Error(), c.samples+" samples") ||
			!strings.Contains(err.Error(), fmt.Sprint(maxSynthSamples)) {
			t.Errorf("%s: CheckScenario err = %v, want a dcsim: error naming %s samples and the limit", c.name, err, c.samples)
		}
	}
	for _, c := range []struct{ vms, hours int }{{2000, 6}, {2000, 24}, {10000, 24}} {
		for _, kind := range []string{"datacenter", "uncorrelated"} {
			if err := CheckScenario(New(WithWorkloadKind(kind), WithVMs(c.vms), WithHours(c.hours))); err != nil {
				t.Errorf("%s %d VMs × %d h: %v", kind, c.vms, c.hours, err)
			}
		}
	}
}

// TestCostMatrixSizeBounded: a run's shared cost matrix holds an entry for
// every VM and every VM pair, allocated before the first sample, so a
// small scenario naming many VMs could ask for hundreds of gigabytes.
// CheckScenario rejects a matrix over 2 GiB with a dcsim: error
// naming the VM count, the bytes and the limit, whichever component asks
// for the matrix, and passes the same count when none does. Nothing here
// is run, so nothing is allocated.
func TestCostMatrixSizeBounded(t *testing.T) {
	largest := map[float64]int{
		1: 23169, // one 8-byte peak per entry
		// A pointer and a P² estimator per entry: 8 + 216 bytes on 64-bit
		// hosts, 4 + 212 on 32-bit ones.
		0.95: map[bool]int{true: 4378, false: 4458}[strconv.IntSize == 64],
	}
	for _, pctl := range []float64{1, 0.95} {
		n := largest[pctl]
		for _, c := range [][2]string{{"corr-aware", "worst-case"}, {"bfd", "eqn4"}} {
			sc := func(vms int) Scenario {
				return New(WithVMs(vms), WithHours(1), WithPctl(pctl), WithPolicy(c[0]), WithGovernor(c[1]))
			}
			if err := CheckScenario(sc(n)); err != nil {
				t.Errorf("%s+%s, pctl %v, %d VMs: %v", c[0], c[1], pctl, n, err)
			}
			err := CheckScenario(sc(n + 1))
			if err == nil || !strings.HasPrefix(err.Error(), "dcsim: ") ||
				!strings.Contains(err.Error(), fmt.Sprintf(" %d VMs ", n+1)) ||
				!strings.Contains(err.Error(), " bytes") ||
				!strings.Contains(err.Error(), "limit of 2147483648") {
				t.Errorf("%s+%s, pctl %v, %d VMs: err = %v, want a dcsim: error naming the VMs, the bytes and the limit",
					c[0], c[1], pctl, n+1, err)
			}
			if pctl == 1 && (err == nil || !strings.Contains(err.Error(), "2147488280 bytes")) {
				t.Errorf("pctl 1, %d VMs: err = %v, want 2147488280 bytes", n+1, err)
			}
		}
		// No component asks for the matrix: nothing to bound.
		if err := CheckScenario(New(WithVMs(n+1), WithHours(1), WithPctl(pctl), WithPolicy("bfd"), WithGovernor("worst-case"))); err != nil {
			t.Errorf("bfd+worst-case, pctl %v, %d VMs: %v", pctl, n+1, err)
		}
	}
}

// TestRunVMsRejectsOversizedCostMatrix: a caller-supplied population is
// bounded where the matrix would be allocated, before anything runs.
func TestRunVMsRejectsOversizedCostMatrix(t *testing.T) {
	const n = 23170 // one more than the largest peak matrix
	vms := make([]*VM, n)
	for i := range vms {
		s := model.NewSeries(5*time.Second, 1)
		s.Append(1)
		vms[i] = model.NewVM(fmt.Sprint("vm", i), s)
	}
	res, err := RunVMs(context.Background(), vms, New(WithPolicy("corr-aware")))
	if res != nil || err == nil || !strings.Contains(err.Error(), "dcsim: the cost matrix for 23170 VMs") {
		t.Fatalf("RunVMs over %d VMs = %v, %v; want the cost matrix bound's error", n, res, err)
	}
}

// TestPercentileFieldsValidated: a negative or non-finite pctl or off_pctl
// fails validation with a dcsim: error instead of panicking in the cost
// matrix or in Series.Percentile, or silently sizing VMs by their minimum;
// so does an off_pctl of 1 or more, which the simulator would replace with
// its default 0.9.
func TestPercentileFieldsValidated(t *testing.T) {
	nan := math.NaN()
	bad := []struct {
		name string
		json string // parsed with ParseScenario when set
		sc   Scenario
	}{
		{name: "pctl -0.5 (json)", json: `{"workload":{"vms":4,"groups":1,"hours":1},"pctl":-0.5}`},
		{name: "pctl -0.5 bfd (json)", json: `{"workload":{"vms":4,"groups":1,"hours":1},"policy":"bfd","pctl":-0.5}`},
		{name: "off_pctl -0.5 (json)", json: `{"workload":{"vms":4,"groups":1,"hours":1},"off_pctl":-0.5}`},
		{name: "pctl -0.5", sc: New(WithVMs(4), WithHours(1), WithPctl(-0.5))},
		{name: "pctl NaN", sc: New(WithVMs(4), WithHours(1), WithPctl(nan))},
		{name: "pctl +Inf", sc: New(WithVMs(4), WithHours(1), WithPctl(math.Inf(1)))},
		{name: "off_pctl NaN", sc: New(WithVMs(4), WithHours(1), WithOffPctl(nan))},
		{name: "off_pctl -Inf", sc: New(WithVMs(4), WithHours(1), WithOffPctl(math.Inf(-1)))},
		{name: "off_pctl 1 (json)", json: `{"workload":{"vms":4,"groups":1,"hours":1},"policy":"pcp","off_pctl":1}`},
		{name: "off_pctl 1.5", sc: New(WithVMs(4), WithHours(1), WithOffPctl(1.5))},
	}
	for _, c := range bad {
		var err error
		if c.json != "" {
			_, err = ParseScenario([]byte(c.json))
		} else {
			err = CheckScenario(c.sc)
			if err == nil {
				t.Errorf("%s: CheckScenario accepted it", c.name)
				continue
			}
			if _, runErr := Run(context.Background(), c.sc); runErr == nil {
				t.Errorf("%s: Run accepted it", c.name)
			}
		}
		if err == nil || !strings.HasPrefix(err.Error(), "dcsim: ") || !strings.Contains(err.Error(), "Pctl") {
			t.Errorf("%s: err = %v, want a dcsim: error naming the field", c.name, err)
		}
	}
	// 0 keeps meaning "default", and a pctl >= 1 is the peak.
	for _, sc := range []Scenario{
		New(WithVMs(4), WithHours(1), WithPctl(0)),
		New(WithVMs(4), WithHours(1), WithPctl(0.9), WithOffPctl(0.95)),
		New(WithVMs(4), WithHours(1), WithPctl(2)),
	} {
		if err := CheckScenario(sc); err != nil {
			t.Errorf("pctl %v off_pctl %v: %v", sc.Pctl, sc.OffPctl, err)
		}
	}
}

// TestRescaleIntervalBelowPeriod: a rescale interval of a whole period or
// more never falls inside a period, so such a run kept every level static
// while its Result reported Dynamic. ParseScenario, CheckScenario and Run
// reject it with a dcsim: error naming both values; shorter intervals run.
func TestRescaleIntervalBelowPeriod(t *testing.T) {
	cases := []struct {
		period, every int
		ok            bool
	}{
		{720, 0, true},
		{720, 12, true},
		{720, 719, true},
		{720, 720, false},
		{720, 750, false},
		{720, math.MaxInt, false},
		{240, 240, false},
	}
	for _, c := range cases {
		name := fmt.Sprintf("period=%d/every=%d", c.period, c.every)
		data := fmt.Sprintf(`{"workload":{"vms":8,"groups":2,"hours":2,"seed":3},"max_servers":6,"period_samples":%d,"rescale_every":%d}`,
			c.period, c.every)
		sc := New(append(smallOpts(), WithPeriodSamples(c.period), WithRescaleEvery(c.every))...)
		_, parseErr := ParseScenario([]byte(data))
		res, runErr := Run(context.Background(), sc)
		errs := map[string]error{"ParseScenario": parseErr, "CheckScenario": CheckScenario(sc), "Run": runErr}
		if c.ok {
			for fn, err := range errs {
				if err != nil {
					t.Errorf("%s: %s: %v", name, fn, err)
				}
			}
			if runErr == nil && res.Dynamic != (c.every > 0) {
				t.Errorf("%s: Result.Dynamic = %v", name, res.Dynamic)
			}
			continue
		}
		want := fmt.Sprintf("dcsim: RescaleEvery %d must be below PeriodSamples %d", c.every, c.period)
		for fn, err := range errs {
			if err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("%s: %s = %v, want %q", name, fn, err, want)
			}
		}
		if res != nil {
			t.Errorf("%s: Run returned a Result", name)
		}
	}
}

// observerPair lets one test watch both callback streams.
type observerPair struct {
	sample func(Sample)
	period func(Period)
}

func (o observerPair) OnSample(s Sample) { o.sample(s) }
func (o observerPair) OnPeriod(p Period) { o.period(p) }
