package predict

import (
	"math"
	"testing"
	"testing/quick"

	"repro/pkg/dcsim/model"
)

func TestLastValue(t *testing.T) {
	p := LastValue{}
	if p.Predict(nil) != 0 {
		t.Fatal("empty history should predict 0")
	}
	if got := p.Predict([]float64{1, 2, 7}); got != 7 {
		t.Fatalf("got %v, want 7", got)
	}
	if p.Name() == "" {
		t.Fatal("name empty")
	}
}

func TestMovingAverage(t *testing.T) {
	p := MovingAverage{K: 3}
	if p.Predict(nil) != 0 {
		t.Fatal("empty history should predict 0")
	}
	if got := p.Predict([]float64{10}); got != 10 {
		t.Fatalf("short history: got %v, want 10", got)
	}
	if got := p.Predict([]float64{1, 2, 3, 4}); math.Abs(got-3) > 1e-12 {
		t.Fatalf("got %v, want mean(2,3,4)=3", got)
	}
	zero := MovingAverage{}
	if got := zero.Predict([]float64{5, 9}); got != 9 {
		t.Fatalf("K<=0 should degrade to last value, got %v", got)
	}
}

func TestEWMA(t *testing.T) {
	p := EWMA{Alpha: 0.5}
	if p.Predict(nil) != 0 {
		t.Fatal("empty history should predict 0")
	}
	// 0.5-EWMA over [4, 8]: 0.5*8 + 0.5*4 = 6.
	if got := p.Predict([]float64{4, 8}); math.Abs(got-6) > 1e-12 {
		t.Fatalf("got %v, want 6", got)
	}
	bad := EWMA{Alpha: 7}
	if got := bad.Predict([]float64{4, 8}); math.Abs(got-6) > 1e-12 {
		t.Fatalf("invalid alpha should fall back to 0.5: got %v", got)
	}
}

func TestMaxOf(t *testing.T) {
	p := MaxOf{K: 2}
	if p.Predict(nil) != 0 {
		t.Fatal("empty history should predict 0")
	}
	if got := p.Predict([]float64{9, 1, 3}); got != 3 {
		t.Fatalf("got %v, want max(1,3)=3", got)
	}
	all := MaxOf{K: 100}
	if got := all.Predict([]float64{9, 1, 3}); got != 9 {
		t.Fatalf("got %v, want 9", got)
	}
}

func TestPredictorsBoundedByHistory(t *testing.T) {
	// Every predictor output must lie within [min, max] of the history.
	preds := []model.Predictor{LastValue{}, MovingAverage{K: 4}, EWMA{Alpha: 0.3}, MaxOf{K: 4}}
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			h[i] = float64(r)
			lo = math.Min(lo, h[i])
			hi = math.Max(hi, h[i])
		}
		for _, p := range preds {
			v := p.Predict(h)
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNamesDistinct(t *testing.T) {
	names := map[string]bool{}
	for _, p := range []model.Predictor{LastValue{}, MovingAverage{K: 3}, EWMA{Alpha: 0.5}, MaxOf{K: 3}} {
		if names[p.Name()] {
			t.Fatalf("duplicate predictor name %q", p.Name())
		}
		names[p.Name()] = true
	}
}
