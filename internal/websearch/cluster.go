package websearch

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/devent"
	"repro/internal/synth"
	"repro/pkg/dcsim/model"
)

// ISN is one index-serving node (a VM). WorkMult models dataset skew: the
// share of matched results this node's index shard produces per query.
type ISN struct {
	Name     string
	Cluster  int
	WorkMult float64
}

// Config describes one Setup-1 experiment: a set of clusters, a placement
// of ISNs onto core pools, and the client waves driving each cluster.
type Config struct {
	// Clients holds one wave per cluster (the paper: sine for Cluster1,
	// cosine for Cluster2, 0..300 clients).
	Clients []synth.Wave
	// ISNs lists every index-serving node with its cluster.
	ISNs []ISN
	// QPSPerClient converts a client count into a query arrival rate.
	QPSPerClient float64
	// MeanWork is the mean per-ISN work of one query, in core-seconds at
	// fmax.
	MeanWork float64
	// WorkSigma is the lognormal shape of per-query per-ISN work.
	WorkSigma float64
	// Duration is the simulated span in seconds.
	Duration float64
	// SampleEvery is the utilization sampling interval in seconds
	// (paper: 1 s via xenstat).
	SampleEvery float64
	// Parking, when set, attaches a core-parking controller to every
	// pool — the dynamic power-gating alternative the paper's Section
	// III-A rules out for scale-out workloads.
	Parking *ParkingConfig
	// SurgeEvery enables flash-crowd surges: for SurgeDur seconds the
	// effective client count jumps to at least SurgeClients, at
	// exponentially distributed intervals with the given mean (seconds).
	// Zero disables surges. These model the "highly variable and
	// fast-changing" demand of Section III-A that power-mode transition
	// latency cannot track.
	SurgeEvery   float64
	SurgeClients float64
	SurgeDur     float64
	Seed         int64
}

// DefaultConfig reproduces the paper's two-cluster testbed: 2 clusters × 2
// ISNs with mild dataset skew, client waves 0..300 over a 10-minute period,
// two simulated cycles. MeanWork is calibrated so a cluster peaks around
// 7 core-equivalents — the regime of Fig. 4 where the heavy ISN slightly
// exceeds a 4-core partition.
func DefaultConfig() Config {
	period := 600 * time.Second
	return Config{
		Clients: []synth.Wave{
			synth.SineClients(period),
			synth.CosineClients(period),
		},
		// Dataset skew follows Fig. 4(a): VM1,2 and VM2,1 are the heavy
		// shards, VM1,1 and VM2,2 the light ones, so the correlation-
		// aware placement also balances heavy against light.
		ISNs: []ISN{
			{Name: "VM1,1", Cluster: 0, WorkMult: 0.85},
			{Name: "VM1,2", Cluster: 0, WorkMult: 1.15},
			{Name: "VM2,1", Cluster: 1, WorkMult: 1.15},
			{Name: "VM2,2", Cluster: 1, WorkMult: 0.85},
		},
		QPSPerClient: 0.2,
		MeanWork:     0.055,
		WorkSigma:    0.8,
		Duration:     1200,
		SampleEvery:  1,
		Seed:         1,
	}
}

// Standard placements of the paper's Fig. 4, for two 8-core servers and
// four ISNs ordered as in DefaultConfig. speed is f/fmax for every pool.

// Segregated gives each ISN a dedicated 4-core partition on its cluster's
// server (Fig. 4a).
func Segregated(speed float64) *model.WebSearchPlacement {
	return &model.WebSearchPlacement{
		Name:      "Segregated",
		PoolOf:    []int{0, 1, 2, 3},
		PoolCores: []int{4, 4, 4, 4},
		PoolSpeed: []float64{speed, speed, speed, speed},
	}
}

// SharedUnCorr shares each 8-core server between the two ISNs of the same
// cluster (Fig. 4b) — core sharing without correlation awareness.
func SharedUnCorr(speed float64) *model.WebSearchPlacement {
	return &model.WebSearchPlacement{
		Name:      "Shared-UnCorr",
		PoolOf:    []int{0, 0, 1, 1},
		PoolCores: []int{8, 8},
		PoolSpeed: []float64{speed, speed},
	}
}

// SharedCorr shares each 8-core server between ISNs of different clusters
// (Fig. 4c) — the correlation-aware choice.
func SharedCorr(speed float64) *model.WebSearchPlacement {
	return &model.WebSearchPlacement{
		Name:      "Shared-Corr",
		PoolOf:    []int{0, 1, 0, 1},
		PoolCores: []int{8, 8},
		PoolSpeed: []float64{speed, speed},
	}
}

// Run simulates the configuration under the placement.
func Run(cfg Config, pl *model.WebSearchPlacement) (*model.WebSearchRun, error) {
	if len(cfg.Clients) == 0 {
		return nil, fmt.Errorf("websearch: no clusters")
	}
	if cfg.QPSPerClient <= 0 || cfg.MeanWork <= 0 || cfg.Duration <= 0 || cfg.SampleEvery <= 0 {
		return nil, fmt.Errorf("websearch: non-positive rate, work, duration, or sample interval")
	}
	for i, isn := range cfg.ISNs {
		if isn.Cluster < 0 || isn.Cluster >= len(cfg.Clients) {
			return nil, fmt.Errorf("websearch: ISN %d references cluster %d of %d", i, isn.Cluster, len(cfg.Clients))
		}
		if isn.WorkMult <= 0 {
			return nil, fmt.Errorf("websearch: ISN %d has non-positive work multiplier", i)
		}
	}
	if err := pl.Validate(len(cfg.ISNs)); err != nil {
		return nil, err
	}

	sim := devent.New()
	rng := rand.New(rand.NewSource(cfg.Seed))

	pools := make([]*Pool, len(pl.PoolCores))
	for i := range pools {
		pools[i] = NewPool(sim, pl.PoolCores[i], pl.PoolSpeed[i])
	}
	acc := make([]*Accumulator, len(cfg.ISNs))
	for i := range acc {
		acc[i] = &Accumulator{}
	}
	if cfg.Parking != nil {
		for i, pool := range pools {
			runParkingController(sim, pool, pl.PoolCores[i], *cfg.Parking, nil)
		}
	}

	nClusters := len(cfg.Clients)
	isnsOf := make([][]int, nClusters)
	for i, isn := range cfg.ISNs {
		isnsOf[isn.Cluster] = append(isnsOf[isn.Cluster], i)
	}
	responses := make([][]float64, nClusters)

	// Flash-crowd surge windows, drawn up-front so runs stay reproducible
	// regardless of arrival interleaving.
	type window struct{ from, to float64 }
	var surges []window
	if cfg.SurgeEvery > 0 && cfg.SurgeClients > 0 && cfg.SurgeDur > 0 {
		srng := rand.New(rand.NewSource(cfg.Seed ^ 0x5357))
		for t := srng.ExpFloat64() * cfg.SurgeEvery; t < cfg.Duration; t += srng.ExpFloat64() * cfg.SurgeEvery {
			surges = append(surges, window{from: t, to: t + cfg.SurgeDur})
			t += cfg.SurgeDur
		}
	}
	surging := func(now float64) bool {
		for _, w := range surges {
			if now >= w.from && now < w.to {
				return true
			}
		}
		return false
	}

	// Per-cluster non-homogeneous Poisson arrivals via thinning.
	lgWork := math.Log(cfg.MeanWork) - cfg.WorkSigma*cfg.WorkSigma/2
	for c := 0; c < nClusters; c++ {
		c := c
		wave := cfg.Clients[c]
		lambdaMax := math.Max(math.Max(wave.Min, wave.Max), cfg.SurgeClients) * cfg.QPSPerClient
		if lambdaMax <= 0 {
			continue
		}
		var arrive func()
		arrive = func() {
			// Thinning: candidate inter-arrival from the max rate,
			// accepted with probability lambda(t)/lambdaMax.
			dt := rng.ExpFloat64() / lambdaMax
			sim.Schedule(dt, func() {
				now := sim.Now()
				if now > cfg.Duration {
					return
				}
				clients := wave.At(time.Duration(now * float64(time.Second)))
				if surging(now) && clients < cfg.SurgeClients {
					clients = cfg.SurgeClients
				}
				lambda := clients * cfg.QPSPerClient
				if rng.Float64() < lambda/lambdaMax {
					launchQuery(sim, cfg, pl, pools, acc, isnsOf[c], lgWork, rng, func(rt float64) {
						responses[c] = append(responses[c], rt)
					})
				}
				arrive()
			})
		}
		arrive()
	}

	// Utilization sampling.
	nSamples := int(cfg.Duration / cfg.SampleEvery)
	res := &model.WebSearchRun{
		Placement:   pl.Name,
		P90:         make([]float64, nClusters),
		P99:         make([]float64, nClusters),
		Mean:        make([]float64, nClusters),
		Queries:     make([]int, nClusters),
		VMUtil:      make([]*model.Series, len(cfg.ISNs)),
		PoolUtil:    make([]*model.Series, len(pools)),
		PoolCores:   make([]*model.Series, len(pools)),
		ClientTrace: make([]*model.Series, nClusters),
	}
	iv := time.Duration(cfg.SampleEvery * float64(time.Second))
	for i := range res.VMUtil {
		res.VMUtil[i] = model.NewSeries(iv, nSamples)
	}
	for i := range res.PoolUtil {
		res.PoolUtil[i] = model.NewSeries(iv, nSamples)
		res.PoolCores[i] = model.NewSeries(iv, nSamples)
	}
	for c := range res.ClientTrace {
		res.ClientTrace[c] = model.NewSeries(iv, nSamples)
	}
	for k := 1; k <= nSamples; k++ {
		k := k
		sim.ScheduleAt(float64(k)*cfg.SampleEvery, func() {
			for i, a := range acc {
				res.VMUtil[i].Append(a.Take() / cfg.SampleEvery)
			}
			for pi, pool := range pools {
				used := pool.TakeUsed() / cfg.SampleEvery
				res.PoolUtil[pi].Append(used / float64(pl.PoolCores[pi]))
				res.PoolCores[pi].Append(float64(pool.CoresNow()))
			}
			for c := range cfg.Clients {
				res.ClientTrace[c].Append(cfg.Clients[c].At(time.Duration((float64(k) - 0.5) * cfg.SampleEvery * float64(time.Second))))
			}
		})
	}

	sim.Run(cfg.Duration)
	// Let in-flight queries drain so tail latencies are counted.
	sim.Run(cfg.Duration + 120)

	for c := 0; c < nClusters; c++ {
		// A view of the response times: Percentile and Mean read them in
		// place, never the interval, and answer 0 for a cluster with none.
		rt := model.SeriesFromSamples(time.Second, responses[c])
		res.Queries[c] = rt.Len()
		res.P90[c] = rt.Percentile(0.9)
		res.P99[c] = rt.Percentile(0.99)
		res.Mean[c] = rt.Mean()
	}
	return res, nil
}

// launchQuery fans a query out to every ISN of its cluster and records the
// response time when the slowest sub-task finishes (the front-end gathers
// all ISN results before replying).
func launchQuery(sim *devent.Sim, cfg Config, pl *model.WebSearchPlacement, pools []*Pool,
	acc []*Accumulator, isns []int, lgWork float64, rng *rand.Rand, record func(float64)) {
	start := sim.Now()
	remaining := len(isns)
	if remaining == 0 {
		return
	}
	for _, i := range isns {
		work := math.Exp(lgWork+cfg.WorkSigma*rng.NormFloat64()) * cfg.ISNs[i].WorkMult
		pools[pl.PoolOf[i]].Submit(work, acc[i], func(now float64) {
			remaining--
			if remaining == 0 {
				record(now - start)
			}
		})
	}
}
