package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestRunningMoments(t *testing.T) {
	var r Running
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(v)
	}
	if r.N() != 8 {
		t.Fatalf("N = %d, want 8", r.N())
	}
	if !approx(r.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v, want 5", r.Mean())
	}
	if !approx(r.SampleVariance(), 32.0/7, 1e-12) {
		t.Fatalf("sample variance = %v, want 32/7", r.SampleVariance())
	}
}

func TestRunningCI95(t *testing.T) {
	var r Running
	// Fewer than two observations: no spread information, interval 0.
	if r.MeanCI95() != 0 {
		t.Fatalf("empty CI95 = %v, want 0", r.MeanCI95())
	}
	r.Add(3)
	if r.MeanCI95() != 0 || r.SampleStdDev() != 0 {
		t.Fatalf("single-sample CI95 = %v, stddev = %v, want 0, 0", r.MeanCI95(), r.SampleStdDev())
	}
	// {1,2,3,4}: sample variance 5/3, half-width t(3)·s/√4.
	var q Running
	for _, x := range []float64{1, 2, 3, 4} {
		q.Add(x)
	}
	sd := q.SampleStdDev()
	if !approx(sd, math.Sqrt(5.0/3.0), 1e-9) {
		t.Fatalf("sample stddev = %v, want sqrt(5/3)", sd)
	}
	want := 3.182 * sd / 2
	if got := q.MeanCI95(); !approx(got, want, 1e-9) {
		t.Fatalf("CI95 = %v, want %v", got, want)
	}
}

func TestTCrit95(t *testing.T) {
	if TCrit95(0) != 0 {
		t.Fatal("df=0 must yield 0")
	}
	if TCrit95(1) != 12.706 {
		t.Fatalf("df=1 = %v", TCrit95(1))
	}
	if TCrit95(1000) != 1.96 {
		t.Fatalf("large df = %v, want normal 1.96", TCrit95(1000))
	}
	// The table must be monotonically decreasing toward the normal value.
	for df := 2; df <= 40; df++ {
		if TCrit95(df) > TCrit95(df-1) {
			t.Fatalf("t-crit not decreasing at df=%d", df)
		}
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.SampleVariance() != 0 {
		t.Fatal("empty Running should report zeros")
	}
}

func TestRunningMatchesTwoPass(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		var r Running
		sum := 0.0
		for _, v := range raw {
			r.Add(float64(v))
			sum += float64(v)
		}
		mean := sum / float64(len(raw))
		varSum := 0.0
		for _, v := range raw {
			d := float64(v) - mean
			varSum += d * d
		}
		sampleVar := 0.0
		if len(raw) > 1 {
			sampleVar = varSum / float64(len(raw)-1)
		}
		return approx(r.Mean(), mean, 1e-9) && approx(r.SampleVariance(), sampleVar, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	var p Pearson
	for i := 0; i < 100; i++ {
		p.Add(float64(i), 3*float64(i)+7)
	}
	if !approx(p.Corr(), 1, 1e-9) {
		t.Fatalf("corr = %v, want 1", p.Corr())
	}
	var q Pearson
	for i := 0; i < 100; i++ {
		q.Add(float64(i), -2*float64(i))
	}
	if !approx(q.Corr(), -1, 1e-9) {
		t.Fatalf("corr = %v, want -1", q.Corr())
	}
}

func TestPearsonConstantSeries(t *testing.T) {
	var p Pearson
	for i := 0; i < 10; i++ {
		p.Add(5, float64(i))
	}
	if p.Corr() != 0 {
		t.Fatalf("corr with constant x = %v, want 0", p.Corr())
	}
	var empty Pearson
	if empty.Corr() != 0 {
		t.Fatal("empty Pearson should be 0")
	}
}

func TestPearsonIndependentNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var p Pearson
	for i := 0; i < 200000; i++ {
		p.Add(rng.Float64(), rng.Float64())
	}
	if math.Abs(p.Corr()) > 0.02 {
		t.Fatalf("independent streams corr = %v, want ~0", p.Corr())
	}
}

func TestPearsonMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = 0.6*xs[i] + 0.4*rng.NormFloat64()
	}
	// Batch two-pass reference.
	mx, my := 0.0, 0.0
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(len(xs))
	my /= float64(len(ys))
	var sxy, sxx, syy float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
		syy += (ys[i] - my) * (ys[i] - my)
	}
	want := sxy / math.Sqrt(sxx*syy)
	if got := PearsonOf(xs, ys); !approx(got, want, 1e-9) {
		t.Fatalf("streaming corr = %v, batch = %v", got, want)
	}
}

func TestPearsonBounds(t *testing.T) {
	f := func(pairs [][2]int8) bool {
		var p Pearson
		for _, pr := range pairs {
			p.Add(float64(pr[0]), float64(pr[1]))
		}
		c := p.Corr()
		return c >= -1 && c <= 1 && !math.IsNaN(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFitLinear(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 5, 7, 9} // y = 1 + 2x
	fit := FitLinear(xs, ys)
	if !approx(fit.A, 1, 1e-9) || !approx(fit.B, 2, 1e-9) || !approx(fit.R2, 1, 1e-9) {
		t.Fatalf("fit = %+v, want A=1 B=2 R2=1", fit)
	}
}

func TestFitLinearDegenerate(t *testing.T) {
	fit := FitLinear([]float64{2, 2, 2}, []float64{1, 5, 9})
	if fit.B != 0 || !approx(fit.A, 5, 1e-9) {
		t.Fatalf("degenerate fit = %+v, want flat through mean", fit)
	}
	if got := FitLinear(nil, nil); got != (Linear{}) {
		t.Fatalf("empty fit = %+v", got)
	}
}
