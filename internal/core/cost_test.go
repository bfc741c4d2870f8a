package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/pkg/dcsim/model"
)

// Ref returns the current reference utilization û of VM i.
func (m *CostMatrix) Ref(i int) float64 { return m.ref(i) }

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// antiPhased returns two series that peak at disjoint times.
func antiPhased(n int) (a, b []float64) {
	a = make([]float64, n)
	b = make([]float64, n)
	for i := range a {
		if i%2 == 0 {
			a[i], b[i] = 4, 1
		} else {
			a[i], b[i] = 1, 4
		}
	}
	return a, b
}

func TestCostOfIdenticalSeriesIsOne(t *testing.T) {
	xs := []float64{1, 3, 2, 5, 4}
	if got := CostOf(xs, xs, 1); !approx(got, 1, 1e-12) {
		t.Fatalf("cost of identical series = %v, want 1", got)
	}
}

func TestCostOfAntiPhased(t *testing.T) {
	a, b := antiPhased(100)
	got := CostOf(a, b, 1)
	// Peaks 4 and 4, aggregate peak 5: cost = 8/5 = 1.6.
	if !approx(got, 1.6, 1e-12) {
		t.Fatalf("anti-phased cost = %v, want 1.6", got)
	}
}

func TestCostOfEdgeCases(t *testing.T) {
	if got := CostOf(nil, nil, 1); got != 1 {
		t.Fatalf("empty cost = %v, want 1", got)
	}
	zeros := []float64{0, 0, 0}
	if got := CostOf(zeros, zeros, 1); got != 1 {
		t.Fatalf("all-zero cost = %v, want 1", got)
	}
}

func TestCostOfAtLeastOneForPeaks(t *testing.T) {
	// With peak reference, û(a+b) <= û(a)+û(b), so cost >= 1 always.
	f := func(rawA, rawB []uint8) bool {
		n := len(rawA)
		if len(rawB) < n {
			n = len(rawB)
		}
		if n == 0 {
			return true
		}
		a := make([]float64, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = float64(rawA[i])
			b[i] = float64(rawB[i])
		}
		return CostOf(a, b, 1) >= 1-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCostOfSymmetric(t *testing.T) {
	f := func(rawA, rawB []uint8) bool {
		n := len(rawA)
		if len(rawB) < n {
			n = len(rawB)
		}
		a := make([]float64, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = float64(rawA[i])
			b[i] = float64(rawB[i])
		}
		return CostOf(a, b, 1) == CostOf(b, a, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCostMatrixMatchesBatch feeds the streaming matrix and the batch
// CostOf the same windows. Both run the same reference estimator in the
// same order — a running max at pctl 1, P² at pctl 0.9 — so every cost
// agrees exactly.
func TestCostMatrixMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, samples = 5, 400
	series := make([][]float64, n)
	for i := range series {
		series[i] = make([]float64, samples)
		for k := range series[i] {
			series[i][k] = rng.Float64() * 4
		}
	}
	for _, pctl := range []float64{1, 0.9} {
		m := NewCostMatrix(n, pctl)
		sample := make([]float64, n)
		for k := 0; k < samples; k++ {
			for i := range series {
				sample[i] = series[i][k]
			}
			m.Add(sample)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				want := CostOf(series[i], series[j], pctl)
				if got := m.Cost(i, j); got != want {
					t.Fatalf("pctl %v: matrix cost(%d,%d) = %v, batch = %v", pctl, i, j, got, want)
				}
			}
		}
	}
}

func TestCostMatrixSymmetryAndDiagonal(t *testing.T) {
	m := NewCostMatrix(4, 1)
	rng := rand.New(rand.NewSource(2))
	sample := make([]float64, 4)
	for k := 0; k < 50; k++ {
		for i := range sample {
			sample[i] = rng.Float64()
		}
		m.Add(sample)
	}
	for i := 0; i < 4; i++ {
		if m.Cost(i, i) != 1 {
			t.Fatalf("diagonal cost = %v", m.Cost(i, i))
		}
		for j := 0; j < 4; j++ {
			if m.Cost(i, j) != m.Cost(j, i) {
				t.Fatalf("asymmetric cost at (%d,%d)", i, j)
			}
		}
	}
}

func TestCostMatrixFreshAndReset(t *testing.T) {
	m := NewCostMatrix(3, 1)
	if m.Cost(0, 1) != 1 {
		t.Fatalf("fresh matrix cost = %v, want 1", m.Cost(0, 1))
	}
	if m.Samples() != 0 {
		t.Fatalf("fresh samples = %d", m.Samples())
	}
	m.Add([]float64{4, 1, 0})
	m.Add([]float64{1, 4, 0})
	if m.Samples() != 2 {
		t.Fatalf("samples = %d, want 2", m.Samples())
	}
	if m.Cost(0, 1) <= 1 {
		t.Fatalf("anti-phased pair should have cost > 1, got %v", m.Cost(0, 1))
	}
	m.Reset()
	if m.Samples() != 0 || m.Cost(0, 1) != 1 {
		t.Fatal("reset should clear the matrix")
	}
}

func TestCostMatrixPanics(t *testing.T) {
	m := NewCostMatrix(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong sample length should panic")
		}
	}()
	m.Add([]float64{1})
}

func TestCostMatrixPercentileMode(t *testing.T) {
	// With a 90th-percentile reference the matrix must still produce
	// sane (near-1-or-above) costs for anti-phased workloads.
	m := NewCostMatrix(2, 0.9)
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 5000; k++ {
		hi := rng.Float64()*0.5 + 3.5
		lo := rng.Float64() * 0.5
		if k%2 == 0 {
			m.Add([]float64{hi, lo})
		} else {
			m.Add([]float64{lo, hi})
		}
	}
	if c := m.Cost(0, 1); c < 1.3 {
		t.Fatalf("anti-phased percentile cost = %v, want clearly > 1.3", c)
	}
}

func TestServerCost(t *testing.T) {
	refs := []float64{4, 4, 2}
	cost := func(i, j int) float64 {
		if i == j {
			return 1
		}
		// 0-1 anti-correlated (1.5); others fully correlated (1.0).
		if (i == 0 && j == 1) || (i == 1 && j == 0) {
			return 1.5
		}
		return 1.0
	}
	if got := ServerCost([]int{0}, refs, cost); got != 1 {
		t.Fatalf("singleton server cost = %v, want 1", got)
	}
	if got := ServerCost(nil, refs, cost); got != 1 {
		t.Fatalf("empty server cost = %v, want 1", got)
	}
	// Two members 0,1: w0=w1=0.5, each mean pairwise cost = 1.5.
	if got := ServerCost([]int{0, 1}, refs, cost); !approx(got, 1.5, 1e-12) {
		t.Fatalf("pair server cost = %v, want 1.5", got)
	}
	// Three members: w = 0.4, 0.4, 0.2.
	// j=0: mean(1.5, 1.0) = 1.25; j=1: mean(1.5, 1.0) = 1.25; j=2: mean(1,1)=1.
	want := 0.4*1.25 + 0.4*1.25 + 0.2*1.0
	if got := ServerCost([]int{0, 1, 2}, refs, cost); !approx(got, want, 1e-12) {
		t.Fatalf("trio server cost = %v, want %v", got, want)
	}
}

func TestServerCostZeroRefs(t *testing.T) {
	refs := []float64{0, 0}
	cost := func(i, j int) float64 { return 2 }
	if got := ServerCost([]int{0, 1}, refs, cost); got != 1 {
		t.Fatalf("zero-demand server cost = %v, want 1", got)
	}
}

// The TestMonitor* tests pin one VM's reference û: a one-VM matrix holds
// exactly the per-VM estimator of Section IV-A, with no pairs.

func TestMonitorPeak(t *testing.T) {
	m := NewCostMatrix(1, 1)
	for _, v := range []float64{0.5, 3, 1, 2} {
		m.Add([]float64{v})
	}
	if m.Ref(0) != 3 {
		t.Fatalf("peak ref = %v, want 3", m.Ref(0))
	}
	if m.Samples() != 4 {
		t.Fatalf("samples = %d, want 4", m.Samples())
	}
	m.Reset()
	if m.Ref(0) != 0 || m.Samples() != 0 {
		t.Fatal("reset should clear the peak")
	}
}

func TestMonitorPercentileTracksExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewCostMatrix(1, 0.9)
	samples := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := math.Exp(rng.NormFloat64() * 0.4)
		m.Add([]float64{v})
		samples = append(samples, v)
	}
	exact := model.SeriesFromSamples(time.Second, samples).Percentile(0.9)
	if rel := math.Abs(m.Ref(0)-exact) / exact; rel > 0.05 {
		t.Fatalf("P² q90 = %v, exact = %v (rel %v)", m.Ref(0), exact, rel)
	}
}

func TestMonitorPanicsOnBadPercentile(t *testing.T) {
	for _, pctl := range []float64{0, -0.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCostMatrix(1, %v) should panic", pctl)
				}
			}()
			NewCostMatrix(1, pctl)
		}()
	}
}

func TestMonitorPeakMatchesSeriesMax(t *testing.T) {
	f := func(raw []uint16) bool {
		m := NewCostMatrix(1, 1)
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) / 100
			m.Add(xs[i : i+1])
		}
		return m.Ref(0) == model.SeriesFromSamples(time.Second, xs).Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
