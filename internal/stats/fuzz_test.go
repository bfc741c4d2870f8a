package stats

import (
	"math"
	"testing"
)

// FuzzP2Quantile feeds arbitrary byte-derived streams into the P² estimator
// and checks its invariant: the estimate stays within the observed range.
func FuzzP2Quantile(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(90))
	f.Add([]byte{255, 0, 255, 0, 128}, uint8(50))
	f.Add([]byte{7}, uint8(99))
	f.Fuzz(func(t *testing.T, raw []byte, qRaw uint8) {
		if len(raw) == 0 {
			return
		}
		q := (float64(qRaw%98) + 1) / 100
		p := NewP2Quantile(q)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, b := range raw {
			x := float64(b)
			p.Add(x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		v := p.Value()
		if math.IsNaN(v) || v < lo-1e-9 || v > hi+1e-9 {
			t.Fatalf("P²(%v) = %v outside observed [%v, %v]", q, v, lo, hi)
		}
	})
}

// FuzzPearson checks the streaming correlation never leaves [-1, 1] and
// never yields NaN, whatever the input stream.
func FuzzPearson(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{4, 3, 2, 1})
	f.Add([]byte{0, 0, 0}, []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, xs, ys []byte) {
		var p Pearson
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		for i := 0; i < n; i++ {
			p.Add(float64(xs[i]), float64(ys[i]))
		}
		c := p.Corr()
		if math.IsNaN(c) || c < -1 || c > 1 {
			t.Fatalf("corr = %v", c)
		}
	})
}
