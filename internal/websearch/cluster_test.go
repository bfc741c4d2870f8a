package websearch

import (
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/synth"
	"repro/pkg/dcsim/model"
)

// quickConfig is a shortened run for unit tests.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Duration = 300
	return cfg
}

func TestRunValidation(t *testing.T) {
	good := quickConfig()
	cases := []func(*Config){
		func(c *Config) { c.Clients = nil },
		func(c *Config) { c.QPSPerClient = 0 },
		func(c *Config) { c.MeanWork = 0 },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.SampleEvery = 0 },
		func(c *Config) { c.ISNs[0].Cluster = 9 },
		func(c *Config) { c.ISNs[0].WorkMult = 0 },
	}
	for i, mutate := range cases {
		cfg := quickConfig()
		mutate(&cfg)
		if _, err := Run(cfg, Segregated(1)); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	badPl := Segregated(1)
	badPl.PoolOf = []int{0}
	if _, err := Run(good, badPl); err == nil {
		t.Error("short placement accepted")
	}
	badPl2 := Segregated(1)
	badPl2.PoolOf = []int{0, 1, 2, 9}
	if _, err := Run(good, badPl2); err == nil {
		t.Error("out-of-range pool accepted")
	}
	badPl3 := Segregated(1)
	badPl3.PoolSpeed = []float64{1, 1, 1}
	if _, err := Run(good, badPl3); err == nil {
		t.Error("pool size/speed mismatch accepted")
	}
}

func TestRunShapes(t *testing.T) {
	cfg := quickConfig()
	r, err := Run(cfg, SharedUnCorr(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.P90) != 2 || len(r.Mean) != 2 || len(r.Queries) != 2 {
		t.Fatalf("per-cluster shapes: %+v", r)
	}
	if r.Queries[0] == 0 || r.Queries[1] == 0 {
		t.Fatalf("no queries recorded: %v", r.Queries)
	}
	wantSamples := int(cfg.Duration / cfg.SampleEvery)
	for i, s := range r.VMUtil {
		if s.Len() != wantSamples {
			t.Fatalf("VM %d trace has %d samples, want %d", i, s.Len(), wantSamples)
		}
	}
	for _, s := range r.PoolUtil {
		if s.Max() > 1+1e-9 {
			t.Fatalf("normalized pool utilization exceeded 1: %v", s.Max())
		}
		if s.Min() < 0 {
			t.Fatal("negative utilization")
		}
	}
	if r.P90[0] <= 0 || r.P90[0] < r.Mean[0]*0.5 {
		t.Fatalf("implausible latency stats: p90=%v mean=%v", r.P90[0], r.Mean[0])
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(quickConfig(), SharedCorr(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickConfig(), SharedCorr(1))
	if err != nil {
		t.Fatal(err)
	}
	if a.P90[0] != b.P90[0] || a.Queries[0] != b.Queries[0] {
		t.Fatal("same seed should reproduce identical results")
	}
}

func TestUtilizationTracksClients(t *testing.T) {
	// Fig 1: ISN utilization must be strongly correlated with the client
	// wave of its own cluster.
	cfg := quickConfig()
	cfg.Duration = 600
	r, err := Run(cfg, Segregated(1))
	if err != nil {
		t.Fatal(err)
	}
	// Smooth over 10 s to remove Poisson noise before correlating.
	u := r.VMUtil[0].Downsample(10)
	c := r.ClientTrace[0].Downsample(10)
	corr := stats.PearsonOf(u.Samples(), c.Samples())
	if corr < 0.7 {
		t.Fatalf("ISN utilization vs clients correlation = %v, want > 0.7", corr)
	}
}

func TestIntraClusterCorrelationExceedsInter(t *testing.T) {
	// The Section-III-C observation: two ISNs of one cluster are far more
	// correlated than ISNs of different (anti-phased) clusters.
	cfg := quickConfig()
	cfg.Duration = 600
	r, err := Run(cfg, Segregated(1))
	if err != nil {
		t.Fatal(err)
	}
	smooth := func(i int) []float64 { return r.VMUtil[i].Downsample(15).Samples() }
	intra := stats.PearsonOf(smooth(0), smooth(1))
	inter := stats.PearsonOf(smooth(0), smooth(2))
	if intra < 0.6 {
		t.Fatalf("intra-cluster correlation = %v, want strong", intra)
	}
	if intra <= inter {
		t.Fatalf("intra (%v) should exceed inter (%v)", intra, inter)
	}
}

func TestSharingBeatsSegregationAndCorrBeatsUnCorr(t *testing.T) {
	// Fig 5's ordering at full frequency.
	cfg := quickConfig()
	cfg.Duration = 600
	seg, err := Run(cfg, Segregated(1))
	if err != nil {
		t.Fatal(err)
	}
	unc, err := Run(cfg, SharedUnCorr(1))
	if err != nil {
		t.Fatal(err)
	}
	corr, err := Run(cfg, SharedCorr(1))
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		if unc.P90[c] >= seg.P90[c] {
			t.Fatalf("cluster %d: sharing (%v) should beat segregation (%v)", c, unc.P90[c], seg.P90[c])
		}
		if corr.P90[c] >= unc.P90[c] {
			t.Fatalf("cluster %d: corr-aware (%v) should beat uncorr (%v)", c, corr.P90[c], unc.P90[c])
		}
	}
}

func TestPlacementNamesAndSpeeds(t *testing.T) {
	if Segregated(1).Name != "Segregated" ||
		SharedUnCorr(1).Name != "Shared-UnCorr" ||
		SharedCorr(1).Name != "Shared-Corr" {
		t.Fatal("placement names changed")
	}
	p := SharedCorr(0.9)
	for _, s := range p.PoolSpeed {
		if s != 0.9 {
			t.Fatalf("speed = %v, want 0.9", s)
		}
	}
}

func TestCustomSingleClusterRun(t *testing.T) {
	// A one-cluster, one-ISN sanity case on a tiny pool.
	cfg := Config{
		Clients:      []synth.Wave{{Min: 10, Max: 10, Period: time.Hour}},
		ISNs:         []ISN{{Name: "only", Cluster: 0, WorkMult: 1}},
		QPSPerClient: 0.5,
		MeanWork:     0.05,
		WorkSigma:    0.3,
		Duration:     200,
		SampleEvery:  1,
		Seed:         7,
	}
	pl := &model.WebSearchPlacement{Name: "single", PoolOf: []int{0}, PoolCores: []int{2}, PoolSpeed: []float64{1}}
	r, err := Run(cfg, pl)
	if err != nil {
		t.Fatal(err)
	}
	// Mean demand = 5 qps * 0.05 cs = 0.25 cores.
	got := r.VMUtil[0].Mean()
	if got < 0.15 || got > 0.35 {
		t.Fatalf("mean utilization = %v, want ~0.25", got)
	}
}
