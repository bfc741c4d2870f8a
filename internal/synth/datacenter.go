package synth

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/dcsim/model"
)

// DatacenterConfig parameterizes the synthetic stand-in for the paper's
// Setup-2 input: one day of CPU utilization for the top-N VMs of a real
// datacenter, 5-minute means refined to 5-second samples.
//
// VMs are organized into service groups. Members of a group share a diurnal
// base profile and burst episodes, which produces the strong, fast-changing
// intra-cluster correlation the paper observes in scale-out services; each
// VM adds idiosyncratic noise on top.
type DatacenterConfig struct {
	VMs            int           // number of VM traces (paper: 40)
	Groups         int           // number of correlated service groups
	Day            time.Duration // total span (paper: 24h)
	CoarseInterval time.Duration // coarse sampling (paper: 5 min)
	FineFactor     int           // fine samples per coarse sample (paper: 60 -> 5 s)
	Sigma          float64       // lognormal shape of the fine-grained refinement
	ScaleMin       float64       // smallest per-VM mean demand, in cores
	ScaleMax       float64       // largest per-VM mean demand, in cores
	BurstProb      float64       // per coarse sample, chance a group burst starts
	BurstGain      float64       // multiplicative demand gain during a burst
	NoiseFrac      float64       // per-VM slow noise amplitude as a fraction of demand
	Seed           int64
}

// DefaultDatacenterConfig mirrors the paper's Setup 2.
func DefaultDatacenterConfig() DatacenterConfig {
	return DatacenterConfig{
		VMs:            40,
		Groups:         8,
		Day:            24 * time.Hour,
		CoarseInterval: 5 * time.Minute,
		FineFactor:     60,
		Sigma:          0.25,
		ScaleMin:       0.6,
		ScaleMax:       2.2,
		BurstProb:      0.03,
		BurstGain:      1.6,
		NoiseFrac:      0.10,
		Seed:           1,
	}
}

// generator holds the datacenter workload's shared group state — diurnal
// profiles, burst episodes, size scales — and the rng every VM's coarse
// series is drawn from in index order.
type generator struct {
	cfg          DatacenterConfig
	rng          *rand.Rand
	nCoarse      int
	groupProfile [][]float64
	groupScale   []float64
}

// newGenerator validates cfg (panicking on degenerate values, as
// Datacenter always has) and draws the shared group state.
func newGenerator(cfg DatacenterConfig) *generator {
	if cfg.VMs <= 0 || cfg.Groups <= 0 {
		panic("synth: DatacenterConfig needs positive VMs and Groups")
	}
	if cfg.FineFactor <= 0 {
		panic("synth: DatacenterConfig needs positive FineFactor")
	}
	rng := newRand(cfg.Seed)
	nCoarse := int(cfg.Day / cfg.CoarseInterval)
	if nCoarse < 2 {
		panic("synth: Day must cover at least two coarse samples")
	}
	// Per-group diurnal base profiles in [lowFloor, 1], plus shared burst
	// episodes. Bursts are the "abrupt workload changes" that defeat the
	// last-value predictor in the paper; sharing them within a group is
	// what makes correlated co-location dangerous.
	groupProfile := make([][]float64, cfg.Groups)
	for g := range groupProfile {
		phase := rng.Float64() * 2 * math.Pi
		phase2 := rng.Float64() * 2 * math.Pi
		a1 := 0.30 + 0.20*rng.Float64()
		a2 := 0.05 + 0.15*rng.Float64()
		floor := 0.12 + 0.10*rng.Float64()
		prof := make([]float64, nCoarse)
		for t := range prof {
			x := 2 * math.Pi * float64(t) / float64(nCoarse)
			v := 0.5 + a1*math.Sin(x+phase) + a2*math.Sin(2*x+phase2)
			if v < floor {
				v = floor
			}
			prof[t] = v
		}
		// Burst episodes: abrupt multiplicative surges with a triangular
		// ramp up and down, lasting tens of minutes and biased toward
		// the service's busy hours (surge traffic arrives when the
		// service is already loaded). This is what makes correlated
		// co-location dangerous: a server whose VMs all belong to the
		// bursting service sees the joint surge on top of its diurnal
		// peak, while a correlation-aware placement dilutes each surge
		// across servers whose other members are off-peak.
		nBursts := int(cfg.BurstProb*float64(nCoarse) + 0.5)
		maxProf := 0.0
		for _, v := range prof {
			if v > maxProf {
				maxProf = v
			}
		}
		for b := 0; b < nBursts; b++ {
			// Rejection-sample a start time weighted by the profile.
			t := rng.Intn(nCoarse)
			for rng.Float64() > prof[t]/maxProf {
				t = rng.Intn(nCoarse)
			}
			dur := 4 + rng.Intn(5)
			apex := (cfg.BurstGain - 1) * (0.8 + 0.4*rng.Float64())
			for k := 0; k < dur && t+k < nCoarse; k++ {
				frac := 1 - math.Abs(float64(2*k+1)/float64(dur)-1)
				prof[t+k] *= 1 + apex*frac
			}
		}
		groupProfile[g] = prof
	}

	// VMs of the same service tend to be similarly sized (replicas of one
	// tier), so the size scale is drawn per group with a small per-VM
	// jitter. This matters for the baselines: best-fit packing by size
	// then naturally co-locates same-service (correlated) VMs, as happens
	// with real datacenter inventories.
	groupScale := make([]float64, cfg.Groups)
	for g := range groupScale {
		groupScale[g] = cfg.ScaleMin + (cfg.ScaleMax-cfg.ScaleMin)*rng.Float64()
	}

	return &generator{cfg: cfg, rng: rng, nCoarse: nCoarse,
		groupProfile: groupProfile, groupScale: groupScale}
}

// Load generates the datacenter dataset cfg describes. Every VM's coarse
// series comes from the generator rng in strict index order on the
// caller's goroutine, ctx checked before each VM's draw. Then GOMAXPROCS
// workers, the caller's goroutine one of them, take blocks of consecutive
// VMs in turn and refine each VM from its own seed, ctx checked before
// each. A trace depends only on its coarse series and its seed, so the
// traces are the same at every GOMAXPROCS. Load waits for every worker,
// so no goroutine outlives the call, and a cancelled ctx stops the load
// with ctx's error.
//
// Each worker draws from one LogNormal, re-seeded for each VM, and cuts
// the fine series of a block from one array, each capped at its own
// length so that Series.Append copies instead of writing into the next
// VM's samples. A series kept alive keeps its whole block alive.
func Load(ctx context.Context, cfg DatacenterConfig) (*model.Dataset, error) {
	gen := newGenerator(cfg)
	ds := &model.Dataset{Names: make([]string, cfg.VMs), Fine: make([]*model.Series, cfg.VMs)}
	// The coarse means are only the refinement's input: the dataset
	// carries the 5-second trace every run reads.
	coarse := make([]*model.Series, cfg.VMs)
	for i := range coarse {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ds.Names[i], coarse[i] = gen.drawCoarse(i)
	}
	n := gen.nCoarse * cfg.FineFactor
	interval := cfg.CoarseInterval / time.Duration(cfg.FineFactor)
	workers := runtime.GOMAXPROCS(0)
	block := blockVMs(cfg.VMs, n, workers)
	blocks := (cfg.VMs + block - 1) / block
	var next atomic.Int64
	refine := func() {
		ln := NewLogNormal(cfg.Sigma, 0) // re-seeded for every VM
		for {
			first := int(next.Add(1)-1) * block
			if first >= cfg.VMs {
				return
			}
			vms := min(block, cfg.VMs-first)
			all := make([]float64, vms*n)
			for j := range vms {
				if ctx.Err() != nil {
					return
				}
				i := first + j
				fine := all[j*n : (j+1)*n : (j+1)*n]
				ln.rng.Seed(cfg.Seed + int64(1000+i))
				ln.refine(fine, coarse[i].Samples(), cfg.FineFactor)
				ds.Fine[i] = model.SeriesFromSamples(interval, fine)
			}
		}
	}
	var wg sync.WaitGroup
	for range min(workers, blocks) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refine()
		}()
	}
	refine()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return ds, nil
}

// blockBytes is about how many bytes of fine samples a Load worker cuts
// from one array. An array past Go's largest size class (32 KiB) is
// rounded up to whole 8 KiB pages: under 1% of a 1 MiB block, where a 6 h
// series of its own (34,560 B) took five pages, 40,960 B.
const blockBytes = 1 << 20

// blockVMs is how many consecutive VMs of n fine samples each a Load
// worker claims at once: about blockBytes of samples, and at most
// vms/(4·workers) VMs, so that every worker claims several blocks and a
// small population still spreads over the workers. A block holds at
// least one VM.
func blockVMs(vms, n, workers int) int {
	return max(1, min(blockBytes/(8*n), vms/(4*workers)))
}

// drawCoarse draws VM i's name and coarse series from the generator rng:
// its scale jitter, then its slow idiosyncratic noise, an AR(1) walk
// around 1. The name carries the group.
func (gen *generator) drawCoarse(i int) (string, *model.Series) {
	cfg := gen.cfg
	g := i % cfg.Groups
	scale := gen.groupScale[g] * (0.95 + 0.1*gen.rng.Float64())
	noise := 0.0
	coarse := model.NewSeries(cfg.CoarseInterval, gen.nCoarse)
	for t := 0; t < gen.nCoarse; t++ {
		noise = 0.9*noise + 0.1*gen.rng.NormFloat64()
		v := scale * gen.groupProfile[g][t] * (1 + cfg.NoiseFrac*noise)
		if v < 0.02 {
			v = 0.02
		}
		coarse.Append(v)
	}
	return fmt.Sprintf("vm%02d.g%d", i, g), coarse
}

// Datacenter generates a Dataset according to cfg: Load without a
// context. The same config always yields the same traces.
func Datacenter(cfg DatacenterConfig) *model.Dataset {
	ds, _ := Load(context.Background(), cfg) // a background context is never cancelled
	return ds
}
