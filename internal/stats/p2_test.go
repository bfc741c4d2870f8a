package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/pkg/dcsim/model"
)

func TestP2PanicsOnBadQuantile(t *testing.T) {
	for _, q := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewP2Quantile(%v) should panic", q)
				}
			}()
			NewP2Quantile(q)
		}()
	}
}

func TestP2SmallStreams(t *testing.T) {
	p := NewP2Quantile(0.5)
	if p.Value() != 0 {
		t.Fatal("empty estimator should report 0")
	}
	p.Add(3)
	if p.Value() != 3 {
		t.Fatalf("after one sample: value=%v", p.Value())
	}
	p.Add(1)
	p.Add(2)
	if got := p.Value(); !approx(got, 2, 1e-12) {
		t.Fatalf("exact small-stream median = %v, want 2", got)
	}
}

func TestP2MedianUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := NewP2Quantile(0.5)
	for i := 0; i < 100000; i++ {
		p.Add(rng.Float64())
	}
	if got := p.Value(); math.Abs(got-0.5) > 0.01 {
		t.Fatalf("P² median of U(0,1) = %v, want ~0.5", got)
	}
}

func TestP2NinetiethNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := NewP2Quantile(0.9)
	xs := make([]float64, 0, 50000)
	for i := 0; i < 50000; i++ {
		v := rng.NormFloat64()*2 + 10
		p.Add(v)
		xs = append(xs, v)
	}
	exact := model.SeriesFromSamples(time.Second, xs).Percentile(0.9)
	if math.Abs(p.Value()-exact) > 0.08 {
		t.Fatalf("P² q90 = %v, exact = %v", p.Value(), exact)
	}
}

func TestP2TracksExactWithinTolerance(t *testing.T) {
	// Across several seeds and quantiles, the streaming estimate must stay
	// within a few percent of the exact value for smooth distributions.
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99} {
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p := NewP2Quantile(q)
			xs := make([]float64, 20000)
			for i := range xs {
				xs[i] = math.Exp(rng.NormFloat64() * 0.5) // lognormal
				p.Add(xs[i])
			}
			exact := model.SeriesFromSamples(time.Second, xs).Percentile(q)
			if rel := math.Abs(p.Value()-exact) / exact; rel > 0.05 {
				t.Errorf("q=%v seed=%d: P²=%v exact=%v rel=%v", q, seed, p.Value(), exact, rel)
			}
		}
	}
}

func TestP2ValueWithinObservedRange(t *testing.T) {
	f := func(raw []int16, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		q := (float64(qRaw%98) + 1) / 100 // 0.01..0.99
		p := NewP2Quantile(q)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range raw {
			x := float64(v)
			p.Add(x)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		v := p.Value()
		return v >= lo-1e-9 && v <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestP2Reset(t *testing.T) {
	p := NewP2Quantile(0.9)
	for i := 0; i < 1000; i++ {
		p.Add(float64(i))
	}
	p.Reset()
	if p.Value() != 0 {
		t.Fatalf("after reset: value=%v", p.Value())
	}
	p.Add(5)
	if p.Value() != 5 {
		t.Fatalf("post-reset value = %v, want 5", p.Value())
	}
}
