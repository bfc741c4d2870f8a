package model

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestBasics(t *testing.T) {
	s := NewSeries(time.Second, 4)
	if s.Len() != 0 || s.Interval() != time.Second {
		t.Fatalf("fresh series: len=%d interval=%v", s.Len(), s.Interval())
	}
	s.Append(1, 2, 3, 4)
	if s.Len() != 4 {
		t.Fatalf("len = %d, want 4", s.Len())
	}
	if s.Duration() != 4*time.Second {
		t.Fatalf("duration = %v, want 4s", s.Duration())
	}
	if got := s.At(2); got != 3 {
		t.Fatalf("At(2) = %v, want 3", got)
	}
	if got := s.Mean(); !approx(got, 2.5, 1e-12) {
		t.Fatalf("mean = %v, want 2.5", got)
	}
	if got := s.Max(); got != 4 {
		t.Fatalf("max = %v, want 4", got)
	}
	if got := s.Min(); got != 1 {
		t.Fatalf("min = %v, want 1", got)
	}
}

func TestEmptySeriesStats(t *testing.T) {
	s := NewSeries(time.Second, 0)
	if s.Mean() != 0 || s.Max() != 0 || s.Min() != 0 || s.Percentile(0.9) != 0 {
		t.Fatal("empty series statistics should all be zero")
	}
}

func TestNegativeSamplesMinMax(t *testing.T) {
	s := SeriesFromSamples(time.Second, []float64{-3, -1, -2})
	if got := s.Max(); got != -1 {
		t.Fatalf("max = %v, want -1", got)
	}
	if got := s.Min(); got != -3 {
		t.Fatalf("min = %v, want -3", got)
	}
}

func TestNewPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSeries with zero interval should panic")
		}
	}()
	NewSeries(0, 0)
}

func TestPercentile(t *testing.T) {
	s := SeriesFromSamples(time.Second, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {1, 10}, {1.5, 10}, {0.5, 5.5}, {0.9, 9.1}, {0.25, 3.25},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); !approx(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 101)
	for i := range samples {
		samples[i] = rng.Float64() * 10
	}
	s := SeriesFromSamples(time.Second, samples)
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0001; p += 0.05 {
		v := s.Percentile(p)
		if v < prev-1e-12 {
			t.Fatalf("percentile not monotone at p=%v: %v < %v", p, v, prev)
		}
		prev = v
	}
}

func TestAddAndAggregate(t *testing.T) {
	a := SeriesFromSamples(time.Second, []float64{1, 2})
	b := SeriesFromSamples(time.Second, []float64{10, 20})
	sum, err := AggregateSeries(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if sum.At(0) != 11 || sum.At(1) != 22 {
		t.Fatalf("AggregateSeries(a, b) = %v", sum.Samples())
	}
	agg, err := AggregateSeries(a, b, a)
	if err != nil {
		t.Fatal(err)
	}
	if agg.At(1) != 24 {
		t.Fatalf("AggregateSeries[1] = %v, want 24", agg.At(1))
	}
	if _, err := AggregateSeries(); err == nil {
		t.Fatal("AggregateSeries() of nothing should error")
	}
	c := SeriesFromSamples(2*time.Second, []float64{1, 2})
	if _, err := AggregateSeries(a, c); err == nil {
		t.Fatal("AggregateSeries with interval mismatch should error")
	}
	d := SeriesFromSamples(time.Second, []float64{1})
	if _, err := AggregateSeries(a, d); err == nil {
		t.Fatal("AggregateSeries with length mismatch should error")
	}
}

func TestDownsample(t *testing.T) {
	s := SeriesFromSamples(time.Second, []float64{1, 3, 5, 7, 9})
	d := s.Downsample(2)
	if d.Interval() != 2*time.Second {
		t.Fatalf("interval = %v, want 2s", d.Interval())
	}
	want := []float64{2, 6, 9} // trailing partial window
	if d.Len() != len(want) {
		t.Fatalf("len = %d, want %d", d.Len(), len(want))
	}
	for i, w := range want {
		if !approx(d.At(i), w, 1e-12) {
			t.Fatalf("down[%d] = %v, want %v", i, d.At(i), w)
		}
	}
}

func TestDownsamplePreservesMean(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		samples := make([]float64, len(raw))
		for i, r := range raw {
			samples[i] = float64(r)
		}
		s := SeriesFromSamples(time.Second, samples)
		// Downsampling by a factor that divides the length exactly
		// preserves the mean.
		for _, factor := range []int{1, 2, 4} {
			if len(samples)%factor != 0 {
				continue
			}
			d := s.Downsample(factor)
			if !approx(d.Mean(), s.Mean(), 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateMaxSubadditive(t *testing.T) {
	// The core premise of the paper: the peak of a sum is at most the sum
	// of the peaks. Check the trace layer delivers that invariant.
	f := func(a, b []uint8) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		sa := make([]float64, n)
		sb := make([]float64, n)
		for i := 0; i < n; i++ {
			sa[i] = float64(a[i])
			sb[i] = float64(b[i])
		}
		x := SeriesFromSamples(time.Second, sa)
		y := SeriesFromSamples(time.Second, sb)
		sum, err := AggregateSeries(x, y)
		if err != nil {
			return false
		}
		return sum.Max() <= x.Max()+y.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileMatchesSortDefinition(t *testing.T) {
	f := func(raw []uint8, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		p := float64(pRaw) / 255
		samples := make([]float64, len(raw))
		for i, r := range raw {
			samples[i] = float64(r)
		}
		s := SeriesFromSamples(time.Second, samples)
		got := s.Percentile(p)
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		// Result must lie within the sample range.
		return got >= sorted[0]-1e-9 && got <= sorted[len(sorted)-1]+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSliceSharesStorage(t *testing.T) {
	s := SeriesFromSamples(time.Second, []float64{1, 2, 3})
	v := s.Slice(1, 3)
	v.Samples()[0] = 42
	if s.At(1) != 42 {
		t.Fatal("Slice should be a view over the parent storage")
	}
	c := s.Clone()
	c.Samples()[0] = -1
	if s.At(0) == -1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestValidate(t *testing.T) {
	good := SeriesFromSamples(time.Second, []float64{0, 1, 2.5})
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Series{
		SeriesFromSamples(time.Second, []float64{1, math.NaN()}),
		SeriesFromSamples(time.Second, []float64{math.Inf(1)}),
		SeriesFromSamples(time.Second, []float64{-0.5}),
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad series %d passed validation", i)
		}
	}
}

// TestValidateBoundaries: every sample from +0 (−0 included) to the
// largest finite float64 passes, and a rejected sample is reported as not
// finite or as negative, at its index.
func TestValidateBoundaries(t *testing.T) {
	cases := []struct {
		v    float64
		want string // "" accepts
	}{
		{0, ""},
		{math.Copysign(0, -1), ""},
		{5e-324, ""},
		{math.MaxFloat64, ""},
		{-5e-324, "model: sample 1 is negative (-5e-324)"},
		{-1, "model: sample 1 is negative (-1)"},
		{-math.MaxFloat64, "model: sample 1 is negative (-1.7976931348623157e+308)"},
		{math.Inf(1), "model: sample 1 is not finite"},
		{math.Inf(-1), "model: sample 1 is not finite"},
		{math.NaN(), "model: sample 1 is not finite"},
	}
	for _, c := range cases {
		err := SeriesFromSamples(time.Second, []float64{1, c.v, 2}).Validate()
		if got := fmt.Sprint(err); (c.want == "" && err != nil) || (c.want != "" && got != c.want) {
			t.Errorf("Validate with sample %v = %v, want %q", c.v, err, c.want)
		}
	}
}
