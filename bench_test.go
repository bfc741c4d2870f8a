// Package repro's top-level benchmarks regenerate every table and figure
// of the paper (one benchmark per artifact, printing the measured rows on
// the first iteration) and microbenchmark the core data structures.
//
//	go test -bench=. -benchmem
package repro

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/devent"
	"repro/internal/exp"
	"repro/internal/place"
	"repro/internal/power"
	"repro/internal/predict"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/tracedir"
	"repro/internal/websearch"
	"repro/pkg/dcsim/model"
)

var printOnce sync.Map

// show prints an artifact the first time a benchmark regenerates it, so a
// plain `go test -bench=.` run reproduces the paper's rows.
func show(key string, s fmt.Stringer) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n%s\n", s)
	}
}

func BenchmarkFig1(b *testing.B) {
	o := exp.Full()
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig1(o)
		if err != nil {
			b.Fatal(err)
		}
		show("fig1", r)
		b.ReportMetric(r.CorrIntra, "corr(vm1,vm2)")
	}
}

func BenchmarkTableI(b *testing.B) {
	o := exp.Full()
	for i := 0; i < b.N; i++ {
		r, err := exp.TableI(o)
		if err != nil {
			b.Fatal(err)
		}
		show("tablei", r)
		b.ReportMetric(r.MaxIPCDeltaPct, "maxIPCdelta%")
	}
}

func BenchmarkFig3(b *testing.B) {
	o := exp.Full()
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig3(o)
		if err != nil {
			b.Fatal(err)
		}
		show("fig3", r)
		b.ReportMetric(100*r.AboveLineFrac, "aboveY=X%")
	}
}

func BenchmarkFig4(b *testing.B) {
	o := exp.Full()
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig4(o)
		if err != nil {
			b.Fatal(err)
		}
		show("fig4", r)
		b.ReportMetric(r.SmoothedMax[1], "peakUnCorr")
		b.ReportMetric(r.SmoothedMax[2], "peakCorr")
	}
}

func BenchmarkFig5(b *testing.B) {
	o := exp.Full()
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig5(o)
		if err != nil {
			b.Fatal(err)
		}
		show("fig5", r)
		b.ReportMetric(r.SavingPct, "powerSaving%")
	}
}

func BenchmarkTableIIStatic(b *testing.B) {
	o := exp.Full()
	for i := 0; i < b.N; i++ {
		r, err := exp.TableII(o, false)
		if err != nil {
			b.Fatal(err)
		}
		show("tableiia", r)
		b.ReportMetric(r.SavingsPct, "powerSaving%")
		b.ReportMetric(r.QoSImprovementPP, "qosImprovement_pp")
	}
}

func BenchmarkTableIIDynamic(b *testing.B) {
	o := exp.Full()
	for i := 0; i < b.N; i++ {
		r, err := exp.TableII(o, true)
		if err != nil {
			b.Fatal(err)
		}
		show("tableiib", r)
		b.ReportMetric(r.SavingsPct, "powerSaving%")
		b.ReportMetric(r.QoSImprovementPP, "qosImprovement_pp")
	}
}

func BenchmarkFig6(b *testing.B) {
	o := exp.Full()
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig6(o)
		if err != nil {
			b.Fatal(err)
		}
		show("fig6", r)
		b.ReportMetric(100*r.LowProposed, "proposedLowLevel%")
		b.ReportMetric(100*r.LowBFD, "bfdLowLevel%")
	}
}

// --- ablation benches (A1-A6 are one-shot tables; A5's scale sweep below) ---

func BenchmarkAblationThreshold(b *testing.B) {
	o := exp.Full()
	for i := 0; i < b.N; i++ {
		r, err := exp.AblationThreshold(o)
		if err != nil {
			b.Fatal(err)
		}
		show("a1", r)
	}
}

func BenchmarkAblationMetric(b *testing.B) {
	o := exp.Full()
	for i := 0; i < b.N; i++ {
		r, err := exp.AblationMetric(o)
		if err != nil {
			b.Fatal(err)
		}
		show("a4", r)
	}
}

// --- microbenchmarks on the core machinery ---

// BenchmarkCostMatrixUpdate measures the streaming sample update: at the
// paper's 40-VM scale (780 pairs), and at bench/'s 400-VM corr-aware and
// the 2k-VM scale, where the n(n−1)/2 pair peaks dominate a run. Each Add
// feeds a chunk of 1, 12 or 64 samples: sim.Run feeds up to 64 per Add,
// and 12 where it rescales every 12. ns/pair is the cost of one pair's
// Eqn-1 update for one sample.
func BenchmarkCostMatrixUpdate(b *testing.B) {
	for _, n := range []int{40, 400, 2000} {
		for _, chunk := range []int{1, 12, 64} {
			b.Run(fmt.Sprintf("vms=%d/chunk=%d", n, chunk), func(b *testing.B) {
				benchMatrixUpdate(b, core.NewCostMatrix(n, 1), chunk)
			})
		}
	}
}

// BenchmarkCostMatrixUpdateP95 is the percentile-reference variant (P²
// estimators instead of running maxima), one sample per Add.
func BenchmarkCostMatrixUpdateP95(b *testing.B) {
	benchMatrixUpdate(b, core.NewCostMatrix(40, 0.95), 1)
}

// benchMatrixUpdate feeds m a stream in chunks of the given number of
// samples: each VM has a period of 720 distinct lognormal samples (one
// hour at 5 s) from a fixed seed, and the window restarts every period,
// so peaks keep moving as they do in a run. One fixed sample would stop
// moving every peak after its first Add.
func benchMatrixUpdate(b *testing.B, m *core.CostMatrix, chunk int) {
	const period = 720
	n := m.N()
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, period*n) // sample-major
	for k := range samples {
		samples[k] = math.Exp(rng.NormFloat64() * 0.5)
	}
	k := 0
	for b.Loop() {
		if k+chunk > period {
			k = 0
			m.Reset()
		}
		m.Add(samples[k*n : (k+chunk)*n])
		k += chunk
	}
	pairs := float64(n*(n-1)/2) * float64(chunk)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pairs, "ns/pair")
}

// BenchmarkSeriesPercentile measures one 0.9 percentile over a 720-sample
// (one-hour) window, the one selection sim.Run makes per VM per period for
// PCP's off-peak, which is both the next prediction's history and the
// envelope threshold of the request over that window. Like a run, it
// selects from a different window each call, rotating over 64 seeded
// ones: a window repeated stays in cache and lets the branch predictor
// learn its branches, so it measures faster than a run's selections.
// "lognormal" windows are spread out; "plateau" windows are the same
// demand held at a cap for its top 15% of samples, as a VM pinned at its
// core limit, so the rank falls in a run of 108 equal samples.
func BenchmarkSeriesPercentile(b *testing.B) {
	for _, shape := range []string{"lognormal", "plateau"} {
		b.Run(shape, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			windows := make([]*model.Series, 64)
			for w := range windows {
				xs := make([]float64, 720)
				for k := range xs {
					xs[k] = math.Exp(rng.NormFloat64() * 0.5)
				}
				if shape == "plateau" {
					limit := slices.Sorted(slices.Values(xs))[len(xs)-len(xs)*15/100]
					for k := range xs {
						xs[k] = min(xs[k], limit)
					}
				}
				windows[w] = model.SeriesFromSamples(5*time.Second, xs)
			}
			i := 0
			for b.Loop() {
				windows[i%len(windows)].Percentile(0.9)
				i++
			}
		})
	}
}

// BenchmarkAllocatorScale sweeps the allocator over growing VM counts
// (ablation A5's runtime axis) and records the allocator perf trajectory
// (BENCH_alloc.json via make ci). Two series:
//
//   - exact: the paper's Fig.-2 semantics with the streaming matrix, as
//     simulations run it. The ≥1k sizes guard the index-set remove path
//     and the incremental affinity sums in Allocator.Place: with the old
//     per-pick member rescan the fill alone was O(n²·members).
//   - block=512: blocked candidate evaluation with a flat cost source,
//     the sub-quadratic mode for 10k-VM scenarios — per-admission work is
//     capped at the block size, so ns/op grows ~linearly 1k→10k.
func BenchmarkAllocatorScale(b *testing.B) {
	bench := func(n int, a *core.Allocator) func(b *testing.B) {
		return func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			reqs := make([]model.Request, n)
			for i := range reqs {
				reqs[i] = model.Request{Ref: 0.5 + 3*rng.Float64()}
			}
			if a.Cost == nil {
				m := core.NewCostMatrix(n, 1)
				sample := make([]float64, n)
				for k := 0; k < 50; k++ {
					for i := range sample {
						sample[i] = rng.Float64() * 4
					}
					m.Add(sample)
				}
				a.Cost = m.Cost
			}
			spec := server.XeonE5410()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.Place(reqs, spec, n); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	for _, n := range []int{40, 100, 200, 400, 1000, 2000} {
		cfg := core.DefaultConfig()
		cfg.Block = 0 // DefaultConfig is blocked now; this series pins exact
		b.Run(fmt.Sprintf("exact/vms=%d", n),
			bench(n, &core.Allocator{Config: cfg}))
	}
	for _, n := range []int{1000, 2000, 10000} {
		cfg := core.DefaultConfig()
		cfg.Block = 512
		b.Run(fmt.Sprintf("block=512/vms=%d", n),
			bench(n, &core.Allocator{Config: cfg, Cost: core.SyntheticPairCost}))
	}
}

// BenchmarkAllocPhases attributes hot-path time to its phases so
// BENCH_alloc.json records per-phase baselines:
//
//   - matrix: one streaming CostMatrix.Add — the n(n−1)/2 pair-peak
//     updates of the UPDATE phase.
//   - fill: one full exact placement over O(1) synthetic pair costs —
//     isolates candidate scoring and the running-sum extensions.
//   - total: one matrix-fed exact placement — the simulator's
//     per-period ALLOCATE hot path end to end (scoring + matrix reads).
func BenchmarkAllocPhases(b *testing.B) {
	const n = 2000
	b.Run(fmt.Sprintf("matrix/serial/vms=%d", n), func(b *testing.B) {
		m := core.NewCostMatrix(n, 1)
		rng := rand.New(rand.NewSource(1))
		sample := make([]float64, n)
		for i := range sample {
			sample[i] = rng.Float64() * 4
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Add(sample)
		}
	})
	b.Run(fmt.Sprintf("fill/serial/vms=%d", n), func(b *testing.B) {
		rng := rand.New(rand.NewSource(7))
		reqs := make([]model.Request, n)
		for i := range reqs {
			reqs[i] = model.Request{Ref: 0.5 + 3*rng.Float64()}
		}
		cfg := core.DefaultConfig()
		cfg.Block = 0
		a := &core.Allocator{Config: cfg, Cost: core.SyntheticPairCost}
		spec := server.XeonE5410()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.Place(reqs, spec, n); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("total/serial/vms=%d", n), func(b *testing.B) {
		rng := rand.New(rand.NewSource(7))
		reqs := make([]model.Request, n)
		for i := range reqs {
			reqs[i] = model.Request{Ref: 0.5 + 3*rng.Float64()}
		}
		m := core.NewCostMatrix(n, 1)
		sample := make([]float64, n)
		for k := 0; k < 50; k++ {
			for i := range sample {
				sample[i] = rng.Float64() * 4
			}
			m.Add(sample)
		}
		cfg := core.DefaultConfig()
		cfg.Block = 0
		a := &core.Allocator{Config: cfg, Cost: m.Cost}
		spec := server.XeonE5410()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.Place(reqs, spec, n); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBaselinePlacements measures the baselines at the paper's scale.
func BenchmarkBaselinePlacements(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const n = 40
	win := make([]*model.Series, n)
	reqs := make([]model.Request, n)
	for i := range reqs {
		s := model.NewSeries(5*time.Second, 720)
		for k := 0; k < 720; k++ {
			s.Append(rng.Float64() * 4)
		}
		win[i] = s
		off := s.Percentile(0.9)
		reqs[i] = model.Request{Ref: s.Max(), OffPeak: off, WindowOffPeak: off, Window: s}
	}
	spec := server.XeonE5410()
	for _, pol := range []model.Policy{place.FFD{}, place.BFD{}, place.PCP{}} {
		b.Run(pol.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pol.Place(reqs, spec, 20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP2Quantile measures the streaming percentile estimator.
func BenchmarkP2Quantile(b *testing.B) {
	p := stats.NewP2Quantile(0.95)
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Add(xs[i&1023])
	}
}

// BenchmarkPearson measures the streaming correlation the paper compares
// its cost function against.
func BenchmarkPearson(b *testing.B) {
	var p stats.Pearson
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Add(xs[i&1023], xs[(i+7)&1023])
	}
}

// BenchmarkTraceGeneration measures the Setup-2 synthetic dataset build.
func BenchmarkTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	cfg := synth.DefaultDatacenterConfig()
	for i := 0; i < b.N; i++ {
		ds := synth.Datacenter(cfg)
		if len(ds.Fine) != cfg.VMs {
			b.Fatal("bad dataset")
		}
	}
}

// ingestConfig is the population the ingest benchmarks read: the paper's
// Setup-2 generator over vms VMs and six hours.
func ingestConfig(vms int) synth.DatacenterConfig {
	cfg := synth.DefaultDatacenterConfig()
	cfg.VMs, cfg.Groups, cfg.Day = vms, 4, 6*time.Hour
	return cfg
}

// csvChunk is one trace-dir chunk as tracegen -dir writes it: 16 VMs over
// six hours of 5-second samples.
func csvChunk(b *testing.B) (ds *model.Dataset, data []byte, samples int) {
	ds = synth.Datacenter(ingestConfig(16))
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, ds.Names, ds.Fine); err != nil {
		b.Fatal(err)
	}
	return ds, buf.Bytes(), len(ds.Fine) * ds.Fine[0].Len()
}

// BenchmarkReadCSV measures decoding one trace-dir chunk on one
// goroutine, the per-chunk cost of every recorded-workload ingest.
func BenchmarkReadCSV(b *testing.B) {
	_, data, samples := csvChunk(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := trace.ReadCSV(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
}

// BenchmarkLoadTraceDir measures loading a trace-dir recording of 128 VMs
// over six hours, 16 VMs a chunk as tracegen -dir writes it: eight chunks
// fetched in file order and decoded up to GOMAXPROCS at a time, the
// ingest of every recorded-workload run.
func BenchmarkLoadTraceDir(b *testing.B) {
	ds := synth.Datacenter(ingestConfig(128))
	dir := b.TempDir()
	if err := tracedir.Write(dir, ds, 16); err != nil {
		b.Fatal(err)
	}
	w := model.Workload{Kind: "trace-dir", Path: dir}
	samples := len(ds.Fine) * ds.Fine[0].Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (tracedir.Source{}).Load(context.Background(), w); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
}

// BenchmarkWriteCSV measures encoding one trace-dir chunk, the per-chunk
// cost of tracegen -dir and of recording a workload.
func BenchmarkWriteCSV(b *testing.B) {
	ds, data, samples := csvChunk(b)
	var buf bytes.Buffer
	buf.Grow(len(data))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := trace.WriteCSV(&buf, ds.Names, ds.Fine); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
}

// BenchmarkDatacenterStream measures loading a synthetic datacenter
// workload of 200 VMs over six hours: the ingest every synthetic run pays
// before its first placement.
func BenchmarkDatacenterStream(b *testing.B) {
	b.ReportAllocs()
	cfg := ingestConfig(200)
	samples := 0
	for i := 0; i < b.N; i++ {
		ds, err := synth.Load(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		samples = 0
		for _, s := range ds.Fine {
			samples += s.Len()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
}

// BenchmarkTableIIExtended regenerates the beyond-the-paper comparison
// (FFD + JointVM baselines, migration churn).
func BenchmarkTableIIExtended(b *testing.B) {
	o := exp.Full()
	for i := 0; i < b.N; i++ {
		r, err := exp.TableIIExtended(o)
		if err != nil {
			b.Fatal(err)
		}
		show("extended", r)
	}
}

// BenchmarkPowerGating regenerates the Section III-A power-gating study.
func BenchmarkPowerGating(b *testing.B) {
	o := exp.Full()
	for i := 0; i < b.N; i++ {
		r, err := exp.PowerGating(o)
		if err != nil {
			b.Fatal(err)
		}
		show("gating", r)
		b.ReportMetric(r.TailPenaltyPct, "parkingTailPenalty%")
	}
}

// BenchmarkPSPoolSubmit measures the processor-sharing pool under a steady
// stream of jobs (the web-search simulator's hot path).
func BenchmarkPSPoolSubmit(b *testing.B) {
	s := devent.New()
	p := websearch.NewPool(s, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Submit(0.01, nil, nil)
		if i%64 == 63 {
			s.Run(s.Now() + 0.1)
		}
	}
}

// BenchmarkCacheAccess measures one L2 access of the Table-I cache model.
func BenchmarkCacheAccess(b *testing.B) {
	w := cachesim.WebSearch(1)
	c, err := cachesim.NewCache(6<<20, 16, 64)
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = w.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&4095])
	}
}

// BenchmarkWebSearchSecond measures one simulated second of the two-cluster
// web-search testbed.
func BenchmarkWebSearchSecond(b *testing.B) {
	cfg := websearch.DefaultConfig()
	cfg.Duration = float64(b.N)
	if cfg.Duration < 10 {
		cfg.Duration = 10
	}
	b.ResetTimer()
	if _, err := websearch.Run(cfg, websearch.SharedCorr(1)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDatacenterHour measures one simulated hour (one placement period)
// of the 40-VM Setup-2 under the proposed policy.
func BenchmarkDatacenterHour(b *testing.B) {
	ds := synth.Datacenter(synth.DefaultDatacenterConfig())
	vms := model.VMsFromSeries(ds.Names, ds.Fine)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewCostMatrix(len(vms), 1)
		cfg := sim.Config{
			Spec:          server.XeonE5410(),
			Power:         power.XeonE5410(),
			Policy:        &core.Allocator{Config: core.DefaultConfig(), Cost: m.Cost},
			Governor:      sim.CorrAware{Matrix: m},
			MaxServers:    20,
			PeriodSamples: 720,
			Pctl:          1,
			Predictor:     predict.LastValue{},
			Matrix:        m,
		}
		short := make([]*model.VM, len(vms))
		for v := range vms {
			short[v] = model.NewVM(vms[v].ID, vms[v].Demand.Slice(0, 720))
		}
		if _, err := sim.Run(short, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
