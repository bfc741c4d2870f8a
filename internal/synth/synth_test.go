package synth

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/stats"
	"repro/pkg/dcsim/model"
)

func TestLogNormalMeanPreserved(t *testing.T) {
	ln := NewLogNormal(0.5, 1)
	var r stats.Running
	for i := 0; i < 200000; i++ {
		r.Add(ln.Sample(4))
	}
	if math.Abs(r.Mean()-4) > 0.05 {
		t.Fatalf("lognormal mean = %v, want ~4", r.Mean())
	}
}

func TestLogNormalEdgeCases(t *testing.T) {
	ln := NewLogNormal(0.5, 1)
	if ln.Sample(0) != 0 || ln.Sample(-3) != 0 {
		t.Fatal("non-positive mean should yield 0")
	}
	det := NewLogNormal(0, 1)
	if det.Sample(7) != 7 {
		t.Fatal("sigma=0 should be deterministic")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative sigma should panic")
		}
	}()
	NewLogNormal(-1, 1)
}

func TestLogNormalPositivity(t *testing.T) {
	f := func(meanRaw uint8, seed int64) bool {
		mean := float64(meanRaw)/16 + 0.01
		ln := NewLogNormal(0.4, seed)
		for i := 0; i < 50; i++ {
			if ln.Sample(mean) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRefineShapeAndMean(t *testing.T) {
	coarse := model.SeriesFromSamples(5*time.Minute, []float64{1, 2, 3, 4})
	ln := NewLogNormal(0.3, 5)
	fine := ln.Refine(coarse, 60)
	if fine.Len() != 240 {
		t.Fatalf("fine len = %d, want 240", fine.Len())
	}
	if fine.Interval() != 5*time.Second {
		t.Fatalf("fine interval = %v, want 5s", fine.Interval())
	}
	// Each coarse bucket's fine mean should be near the coarse value.
	for i := 0; i < coarse.Len(); i++ {
		m := fine.Slice(i*60, (i+1)*60).Mean()
		if math.Abs(m-coarse.At(i))/coarse.At(i) > 0.25 {
			t.Fatalf("bucket %d refined mean %v too far from %v", i, m, coarse.At(i))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("factor<=0 should panic")
		}
	}()
	ln.Refine(coarse, 0)
}

func TestWave(t *testing.T) {
	w := SineClients(time.Hour)
	if got := w.At(0); math.Abs(got-150) > 1e-9 {
		t.Fatalf("sine at 0 = %v, want midpoint 150", got)
	}
	if got := w.At(15 * time.Minute); math.Abs(got-300) > 1e-9 {
		t.Fatalf("sine at quarter period = %v, want 300", got)
	}
	c := CosineClients(time.Hour)
	if got := c.At(0); math.Abs(got-300) > 1e-9 {
		t.Fatalf("cosine at 0 = %v, want 300", got)
	}
	if got := c.At(30 * time.Minute); math.Abs(got-0) > 1e-9 {
		t.Fatalf("cosine at half period = %v, want 0", got)
	}
}

func TestWaveSeries(t *testing.T) {
	w := SineClients(time.Hour)
	s := w.Series(time.Minute, 60)
	if s.Len() != 60 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Min() < -1e-9 || s.Max() > 300+1e-9 {
		t.Fatalf("wave out of range: [%v, %v]", s.Min(), s.Max())
	}
}

func TestWaveBounds(t *testing.T) {
	f := func(minRaw, maxRaw uint8, phaseRaw uint8, tRaw uint16) bool {
		lo := float64(minRaw)
		hi := lo + float64(maxRaw) + 1
		w := Wave{Min: lo, Max: hi, Period: time.Hour, Phase: float64(phaseRaw)}
		v := w.At(time.Duration(tRaw) * time.Second)
		return v >= lo-1e-9 && v <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDatacenterShape(t *testing.T) {
	cfg := DefaultDatacenterConfig()
	ds := Datacenter(cfg)
	if len(ds.Fine) != 40 || len(ds.Names) != 40 {
		t.Fatalf("want 40 VMs, got %d/%d", len(ds.Fine), len(ds.Names))
	}
	wantFine := int(24 * time.Hour / (5 * time.Second))
	for i, s := range ds.Fine {
		if s.Len() != wantFine {
			t.Fatalf("vm %d fine len = %d, want %d", i, s.Len(), wantFine)
		}
		if s.Interval() != 5*time.Second {
			t.Fatalf("vm %d interval = %v", i, s.Interval())
		}
		if s.Min() < 0 {
			t.Fatalf("vm %d has negative demand", i)
		}
	}
}

func TestDatacenterDeterministic(t *testing.T) {
	a := Datacenter(DefaultDatacenterConfig())
	b := Datacenter(DefaultDatacenterConfig())
	for i := range a.Fine {
		for j := 0; j < a.Fine[i].Len(); j += 997 {
			if a.Fine[i].At(j) != b.Fine[i].At(j) {
				t.Fatalf("same seed produced different traces at vm %d sample %d", i, j)
			}
		}
	}
	cfg := DefaultDatacenterConfig()
	cfg.Seed = 2
	c := Datacenter(cfg)
	same := true
	for j := 0; j < a.Fine[0].Len() && same; j++ {
		same = a.Fine[0].At(j) == c.Fine[0].At(j)
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestDatacenterIntraGroupCorrelation(t *testing.T) {
	// The generator's whole purpose: VMs within a group must be strongly
	// correlated at 5-minute granularity, and clearly more correlated than
	// across groups on average. VM i belongs to group i % Groups.
	cfg := DefaultDatacenterConfig()
	coarse := fiveMinute(Datacenter(cfg))
	var intra, inter stats.Running
	for i := 0; i < len(coarse); i++ {
		for j := i + 1; j < len(coarse); j++ {
			c := stats.PearsonOf(coarse[i].Samples(), coarse[j].Samples())
			if i%cfg.Groups == j%cfg.Groups {
				intra.Add(c)
			} else {
				inter.Add(c)
			}
		}
	}
	if intra.Mean() < 0.8 {
		t.Fatalf("mean intra-group correlation = %v, want > 0.8", intra.Mean())
	}
	if intra.Mean()-inter.Mean() < 0.3 {
		t.Fatalf("intra (%v) should clearly exceed inter (%v)", intra.Mean(), inter.Mean())
	}
}

// TestUncorrelated: with one group per VM, the "uncorrelated" workload
// kind's shape, the generator shares no profile between VMs.
func TestUncorrelated(t *testing.T) {
	cfg := DefaultDatacenterConfig()
	cfg.VMs = 12
	cfg.Groups = cfg.VMs
	coarse := fiveMinute(Datacenter(cfg))
	var inter stats.Running
	for i := 0; i < len(coarse); i++ {
		for j := i + 1; j < len(coarse); j++ {
			inter.Add(stats.PearsonOf(coarse[i].Samples(), coarse[j].Samples()))
		}
	}
	if inter.Mean() > 0.5 {
		t.Fatalf("uncorrelated dataset mean pairwise correlation = %v, want low", inter.Mean())
	}
}

func TestDatacenterPanics(t *testing.T) {
	for _, mutate := range []func(*DatacenterConfig){
		func(c *DatacenterConfig) { c.VMs = 0 },
		func(c *DatacenterConfig) { c.Groups = 0 },
		func(c *DatacenterConfig) { c.FineFactor = 0 },
		func(c *DatacenterConfig) { c.Day = time.Minute },
	} {
		cfg := DefaultDatacenterConfig()
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			Datacenter(cfg)
		}()
	}
}

// TestLoadAtAnyGOMAXPROCS: Load's workers take VMs in turn, so which
// goroutine refines a VM, and when, changes with GOMAXPROCS and timing.
// Every VM draws only from its own seed, so the traces, names and sample
// bits, are the ones a serial refinement of each VM gives, and the ones
// pinned before the worker pool and the vector exp, at every GOMAXPROCS,
// with the kernel and with the Go exp. Workers sharing one rng fail.
//
// The pins hold on amd64 with or without FMA (CI also runs this under
// GODEBUG=cpu.fma=off) and on 386 (make test-generic), whose math.Exp
// rounded some samples differently before synthesis had its own exp.
// Other architectures fuse multiply-adds inside math.Log, math.Sin and
// the coarse walk, so there the serial reference alone is checked.
func TestLoadAtAnyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer func(saved bool) { useKernel = saved }(useKernel)
	var pinned map[int]string // sha256 prefix of the names and bits
	if runtime.GOARCH == "amd64" || runtime.GOARCH == "386" {
		pinned = map[int]string{
			1:  "8c9d151b3dff8746",
			2:  "b4669b254b85dde3",
			5:  "fc94f8db375edbe0",
			40: "5234c7330943bc75",
		}
	}
	for _, vms := range []int{1, 2, 5, 40} {
		cfg := DefaultDatacenterConfig()
		cfg.VMs, cfg.Groups, cfg.Day = vms, 3, 3*time.Hour
		// Serial reference: each VM's coarse series in index order, each
		// refined from the VM's own seed on this goroutine, sample by
		// sample through Sample's exp.
		ref := newGenerator(cfg)
		want := &model.Dataset{}
		for i := range vms {
			name, coarse := ref.drawCoarse(i)
			ln := NewLogNormal(cfg.Sigma, cfg.Seed+int64(1000+i))
			fine := model.NewSeries(cfg.CoarseInterval/time.Duration(cfg.FineFactor), coarse.Len()*cfg.FineFactor)
			for _, mean := range coarse.Samples() {
				for range cfg.FineFactor {
					fine.Append(ln.Sample(mean))
				}
			}
			want.Names = append(want.Names, name)
			want.Fine = append(want.Fine, fine)
		}
		for _, kernel := range []bool{hasKernel, false} {
			useKernel = kernel
			for _, procs := range []int{1, 2, 7} {
				runtime.GOMAXPROCS(procs)
				ds, err := Load(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				at := fmt.Sprintf("%d VMs at GOMAXPROCS %d (kernel %v)", vms, procs, kernel)
				if len(ds.Names) != vms || len(ds.Fine) != vms {
					t.Fatalf("%s: loaded %d names and %d traces", at, len(ds.Names), len(ds.Fine))
				}
				h := sha256.New()
				for i, fine := range ds.Fine {
					if ds.Names[i] != want.Names[i] || fine.Len() != want.Fine[i].Len() || fine.Interval() != want.Fine[i].Interval() {
						t.Fatalf("%s: VM %d is %q with %d samples every %v, want %q with %d every %v", at, i,
							ds.Names[i], fine.Len(), fine.Interval(), want.Names[i], want.Fine[i].Len(), want.Fine[i].Interval())
					}
					io.WriteString(h, ds.Names[i])
					for j, v := range fine.Samples() {
						if math.Float64bits(v) != math.Float64bits(want.Fine[i].At(j)) {
							t.Fatalf("%s: VM %d sample %d is %v, want %v", at, i, j, v, want.Fine[i].At(j))
						}
						binary.Write(h, binary.LittleEndian, math.Float64bits(v))
					}
				}
				if got, digest := fmt.Sprintf("%x", h.Sum(nil)[:8]), pinned[vms]; pinned != nil && got != digest {
					t.Errorf("%s: digest %s, pinned %s", at, got, digest)
				}
			}
			if !hasKernel {
				break
			}
		}
	}
}

// fiveMinute returns each VM's fine series averaged to the generator's
// 5-minute granularity.
func fiveMinute(ds *model.Dataset) []*model.Series {
	factor := DefaultDatacenterConfig().FineFactor
	out := make([]*model.Series, len(ds.Fine))
	for i, s := range ds.Fine {
		out[i] = s.Downsample(factor)
	}
	return out
}
