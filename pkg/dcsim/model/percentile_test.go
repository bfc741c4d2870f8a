package model

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// sortPercentile is Percentile as a full sort defines it: the reference the
// selection must match bit for bit.
func sortPercentile(xs []float64, p float64) float64 {
	s := SeriesFromSamples(time.Second, xs)
	switch {
	case len(xs) == 0:
		return 0
	case p <= 0:
		return s.Min()
	case p >= 1:
		return s.Max()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := p * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sameBits compares two results exactly; any NaN equals any NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

var percentileSpecials = [...]float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}

// fuzzWindow turns bytes into a window. The first byte picks the encoding:
// odd reads the rest as little-endian float64 bits; even maps each byte to
// one value of a small palette (eighths from -15.75 to 15.625, then NaN, −0,
// +Inf and −Inf), so ties are common and the special values easy to reach.
func fuzzWindow(raw []byte) []float64 {
	if len(raw) == 0 {
		return nil
	}
	var xs []float64
	if raw[0]&1 == 1 {
		for b := raw[1:]; len(b) >= 8; b = b[8:] {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
		return xs
	}
	for _, b := range raw[1:] {
		if int(b) >= 256-len(percentileSpecials) {
			xs = append(xs, percentileSpecials[int(b)-(256-len(percentileSpecials))])
		} else {
			xs = append(xs, float64(int(b)-126)/8)
		}
	}
	return xs
}

// paletteBytes encodes a palette-mode window of byte codes.
func paletteBytes(codes ...byte) []byte { return append([]byte{0}, codes...) }

// FuzzPercentile checks Series.Percentile bit for bit against the sort it
// replaces, at any p, on windows with ties, NaN, −0 and ±Inf, and that it
// leaves the series untouched.
func FuzzPercentile(f *testing.F) {
	const nan, negZero, posInf, negInf = 252, 253, 254, 255
	ramp := make([]byte, 100)
	for i := range ramp {
		ramp[i] = byte(i + 80)
	}
	reversed := make([]byte, len(ramp))
	for i, b := range ramp {
		reversed[len(ramp)-1-i] = b
	}
	organ := make([]byte, 101)
	for i := range organ {
		organ[i] = byte(126 + 50 - abs(i-50))
	}
	raw := []byte{1}
	for _, v := range []float64{3, math.SmallestNonzeroFloat64, -2.5, math.MaxFloat64, 3, 0} {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
	}
	windows := [][]byte{
		paletteBytes(130, 130, 130, 130, 130, 130, 130),
		paletteBytes(130, 127, 130, 127, 127, 130, 140, 127),
		paletteBytes(ramp...),
		paletteBytes(reversed...),
		paletteBytes(organ...),
		paletteBytes(130, nan, 127, 140, 126),
		paletteBytes(126, negZero, 126, negZero, 130, 120),
		paletteBytes(posInf, 130, negInf, 126, posInf),
		paletteBytes(nan, negZero, posInf, negInf, 126),
		paletteBytes(140),
		raw,
	}
	for _, w := range windows {
		for _, p := range []float64{0, math.SmallestNonzeroFloat64, 0.5, 0.9, math.Nextafter(1, 0), 1} {
			f.Add(w, p)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, p float64) {
		if math.IsNaN(p) {
			return // no percentile rank; callers validate p
		}
		xs := fuzzWindow(raw)
		in := append([]float64(nil), xs...)
		got := SeriesFromSamples(time.Second, xs).Percentile(p)
		if want := sortPercentile(in, p); !sameBits(got, want) {
			t.Fatalf("Percentile(%v) of %v = %v (%#x), sort gives %v (%#x)",
				p, in, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		for i := range xs {
			if !sameBits(xs[i], in[i]) {
				t.Fatalf("Percentile modified the series at %d", i)
			}
		}
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestPercentileMatchesSortOnShapes runs the selection against the sort on
// window shapes that stress a quickselect — runs of ties, sorted, reversed,
// organ-pipe and sawtooth orders, heavy-tailed values — at sizes on both
// sides of stackWindow and a spread of percentiles.
func TestPercentileMatchesSortOnShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	shapes := []struct {
		name string
		at   func(i, n int) float64
	}{
		{"ties", func(i, n int) float64 { return float64(rng.Intn(3)) }},
		{"sorted", func(i, n int) float64 { return float64(i) }},
		{"reversed", func(i, n int) float64 { return float64(n - i) }},
		{"organ", func(i, n int) float64 { return float64(n/2 - abs(i-n/2)) }},
		{"sawtooth", func(i, n int) float64 { return float64(i % 7) }},
		{"lognormal", func(i, n int) float64 { return math.Exp(rng.NormFloat64()) }},
	}
	ps := []float64{1e-9, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1 - 1e-9}
	for _, shape := range shapes {
		for n := 1; n <= 2*stackWindow; n += 1 + n/8 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = shape.at(i, n)
			}
			s := SeriesFromSamples(time.Second, xs)
			for _, p := range ps {
				if got, want := s.Percentile(p), sortPercentile(xs, p); !sameBits(got, want) {
					t.Fatalf("%s n=%d: Percentile(%v) = %v, sort gives %v", shape.name, n, p, got, want)
				}
			}
		}
	}
}

// capWindow is an order hostile to partitioning: McIlroy's lazily valued
// adversary ("A Killer Adversary for Quicksort", 1999), run against a
// median-of-three quickselect, built it so that settling rank 42 (p = 0.9
// of 48 samples) takes 23 partitions.
var capWindow = []float64{
	16, 42, 32, 44, 18, 36, 20, 26, 38, 34, 22, 0, 24, 2, 4, 30,
	6, 8, 28, 10, 12, 40, 14, 1, 3, 5, 7, 9, 11, 13, 15, 17,
	19, 21, 23, 25, 27, 29, 31, 33, 35, 37, 39, 41, 43, 45, 46, 47,
}

// TestBucketSelectSlowCases holds Percentile to the sort on the windows
// where the bucket select leaves its common path — one bucket holding
// nearly every sample, a plateau of equal samples at the rank, the upper
// rank past the lower one's bucket, a range it cannot scale and the sorted
// copy it falls back to — at sizes on both sides of every stack buffer,
// and checks that no window is modified.
func TestBucketSelectSlowCases(t *testing.T) {
	near := func(n int) []int { return []int{n - 1, n, n + 1} }
	var sizes []int
	for _, n := range [...]int{stackBucket, buckets, stackWindow} {
		sizes = append(sizes, near(n)...)
	}
	sizes = append(sizes, 2*stackWindow)
	windows := map[string][]float64{"capWindow": capWindow}
	for _, n := range sizes {
		// All samples but one in bucket 0: a ramp of steps far below the
		// one large sample's bucket width.
		crowd := make([]float64, n)
		for i := range crowd {
			crowd[i] = 1 + float64(i*7919%n)*1e-9
		}
		crowd[n/3] = 1e6
		windows[fmt.Sprintf("crowd/n=%d", n)] = crowd
		// The top bucket holding exactly k distinct samples, or k equal
		// ones among a few others, for k on both sides of each gather
		// buffer, above a spread one apart.
		for _, k := range append(near(stackBucket), near(stackWindow)...) {
			if k >= n {
				continue
			}
			w := make([]float64, n)
			plateau := make([]float64, n)
			for i := range w {
				w[i] = float64(i)
				if i >= n-k {
					w[i] = float64(n) * (1 + float64(n-i)*1e-12)
				}
				plateau[(i*7919)%n] = float64(min(i, n-k))
			}
			windows[fmt.Sprintf("bucket=%d/n=%d", k, n)] = w
			windows[fmt.Sprintf("plateau=%d/n=%d", k, n)] = plateau
		}
		// The sorted copy: −0 among +0 and NaN among positives.
		zeros := make([]float64, n)
		for i := range zeros {
			zeros[i] = math.Copysign(0, float64(i%3-1))
		}
		zeros[n/2] = 1
		windows[fmt.Sprintf("signed-zeros/n=%d", n)] = zeros
		nans := make([]float64, n)
		for i := range nans {
			nans[i] = float64((i * 7919) % n)
		}
		nans[n-1] = math.NaN()
		windows[fmt.Sprintf("nan/n=%d", n)] = nans
	}
	// The upper rank in the next non-empty bucket: rank 9.5 of 11 at
	// p = 0.95 falls between the top of bucket 0 and the sample alone in
	// bucket 10, past nine empty ones; at 20 samples and p = 0.5 the two
	// ranks straddle adjacent buckets.
	windows["next-bucket/gap"] = []float64{3, 9, 1, 1000, 0, 8, 2, 7, 5, 6, 4}
	adjacent := make([]float64, 20)
	for i := range adjacent {
		adjacent[i] = float64(i / 10)
	}
	windows["next-bucket/adjacent"] = adjacent
	// Ranges it cannot scale: one past MaxFloat64, an infinite sample,
	// and one so narrow that the scale overflows.
	unscaled := map[string][]float64{
		"overflow":  {-math.MaxFloat64, 1, math.MaxFloat64, 0, 2, -3},
		"infinite":  {1, math.Inf(1), 2, 3, math.Inf(-1), 0.5},
		"subnormal": {0, math.SmallestNonzeroFloat64, 0, 2 * math.SmallestNonzeroFloat64},
	}
	for name, w := range unscaled {
		windows["unscaled/"+name] = w
		if _, _, ok := bucketSelect(w, 1, 2); ok {
			t.Errorf("%s: bucketSelect took %v; want the sorted copy", name, w)
		}
	}
	ps := []float64{math.SmallestNonzeroFloat64, 0.1, 0.5, 0.9, 0.95, 0.99, math.Nextafter(1, 0)}
	for name, xs := range windows {
		in := append([]float64(nil), xs...)
		s := SeriesFromSamples(time.Second, xs)
		for _, p := range ps {
			if got, want := s.Percentile(p), sortPercentile(in, p); !sameBits(got, want) {
				t.Errorf("%s: Percentile(%v) = %v (%#x), sort gives %v (%#x)",
					name, p, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		for i := range xs {
			if !sameBits(xs[i], in[i]) {
				t.Fatalf("%s: Percentile modified the series at %d", name, i)
			}
		}
	}
}

// TestPercentileAllocatesNothing: a window of up to stackWindow samples is
// selected on the stack whatever its shape — spread out, a plateau of
// equal samples at the rank, nearly every sample in one bucket, or −0
// sending it to the sorted copy.
func TestPercentileAllocatesNothing(t *testing.T) {
	const n = stackWindow
	shapes := map[string]func(i int) float64{
		"spread":  func(i int) float64 { return float64(i * 7919 % n) },
		"plateau": func(i int) float64 { return float64(min(i*7919%n, n*85/100)) },
		"crowd": func(i int) float64 {
			if i == n/3 {
				return 1e6
			}
			return 1 + float64(i)*1e-9
		},
		"signed-zeros": func(i int) float64 { return math.Copysign(0, float64(i%3-1)) },
	}
	for name, f := range shapes {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		s := SeriesFromSamples(time.Second, xs)
		if allocs := testing.AllocsPerRun(10, func() { s.Percentile(0.9) }); allocs != 0 {
			t.Errorf("%s: Percentile(0.9) made %v allocations, want 0", name, allocs)
		}
	}
}
