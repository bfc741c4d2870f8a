package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// addGuards is how many values past each end the chunked-feed checks
// watch: a peak array's guards start at −Inf, which any finite sum an
// overrun forms raises, and a chunk's are one whole sample of 1e300,
// which raises every peak a kernel reading one sample too many touches.
const addGuards = 64

// guardedMatrix returns a matrix for n VMs whose peaks sit in a larger
// array: the addGuards values past its last entry start at −Inf.
func guardedMatrix(n int) *CostMatrix {
	m := NewCostMatrix(n, 1)
	buf := make([]float64, len(m.peak)+addGuards)
	for k := len(m.peak); k < len(buf); k++ {
		buf[k] = math.Inf(-1)
	}
	m.peak = buf[:len(m.peak)]
	return m
}

// feedOneByOne is the per-sample feed Add must match: every sample of a
// sample-major chunk in turn, each VM's peak and then each pair's, in
// pairIndex order, raised to the pair's sum where that is larger.
func feedOneByOne(peak []float64, n int, samples []float64) {
	for s := 0; s+n <= len(samples) && n > 0; s += n {
		sample := samples[s : s+n]
		for i, v := range sample {
			if v > peak[i] {
				peak[i] = v
			}
		}
		k := n
		for i, v := range sample {
			for _, w := range sample[i+1:] {
				if sum := v + w; sum > peak[k] {
					peak[k] = sum
				}
				k++
			}
		}
	}
}

// checkAdd feeds a chunk to m through Add and to want one sample at a
// time, then requires every entry to match bit for bit, the guards past
// the peaks to stay −Inf, and Samples to equal samples.
func checkAdd(t *testing.T, m *CostMatrix, want, chunk []float64, samples int, what string) {
	t.Helper()
	n := m.N()
	buf := make([]float64, len(chunk)+n)
	copy(buf, chunk)
	for k := len(chunk); k < len(buf); k++ {
		buf[k] = 1e300
	}
	m.Add(buf[:len(chunk)])
	feedOneByOne(want, n, chunk)
	for k, w := range want {
		if math.Float64bits(m.peak[k]) != math.Float64bits(w) {
			t.Fatalf("%s: n %d, entry %d = %v (%#x), want %v (%#x)",
				what, n, k, m.peak[k], math.Float64bits(m.peak[k]), w, math.Float64bits(w))
		}
	}
	for k, g := range m.peak[len(m.peak):cap(m.peak)] {
		if !math.IsInf(g, -1) {
			t.Fatalf("%s: n %d, guard %d past the peaks written: %v", what, n, k, g)
		}
	}
	if m.Samples() != samples {
		t.Fatalf("%s: n %d, Samples() = %d, want %d", what, n, m.Samples(), samples)
	}
}

// addSizes are the VM counts the chunked-feed checks run: every count
// from 0 to 17 (each remainder of four rows and of eight and four
// columns, alone and after whole tiles), and 40, 63–65, 400 and 401.
var addSizes = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 40, 63, 64, 65, 400, 401}

// drawEdge returns +0 or −0 6% of the time each, NaN, +Inf or −Inf 2%
// each, a small integer (whose sums tie) 12%, and otherwise a lognormal
// draw.
func drawEdge(rng *rand.Rand) float64 {
	switch k := rng.Intn(100); {
	case k < 6:
		return 0
	case k < 12:
		return math.Copysign(0, -1)
	case k < 14:
		return math.NaN()
	case k < 16:
		return math.Inf(1)
	case k < 18:
		return math.Inf(-1)
	case k < 30:
		return float64(rng.Intn(4))
	}
	return math.Exp(rng.NormFloat64())
}

// TestAddChunksMatchPerSampleFeed: a chunked Add leaves every per-VM and
// pair peak with the bits the Go loop leaves fed one sample at a time,
// with the tile kernel and with useTile cleared, at every size in
// addSizes and chunks of 1, 2, 5, 12 and 64 samples. Each run feeds
// three chunks cumulatively, resets, feeds a chunk of all −0 (every peak
// must stay +0, so a kernel that keeps the sum on ties fails), then three
// more chunks. For up to 40 VMs a further pass puts −0, NaN, +Inf and
// −Inf in each VM's position in turn, so each lands in every row and
// column slot of a tile, the six pairs among a strip's rows, the columns
// after the last tile and the rows after the last strip.
func TestAddChunksMatchPerSampleFeed(t *testing.T) {
	defer func(saved bool) { useTile = saved }(useTile)
	rng := rand.New(rand.NewSource(30))
	for _, tile := range []bool{hasTile, false} {
		useTile = tile
		for _, n := range addSizes {
			for _, chunk := range []int{1, 2, 5, 12, 64} {
				what := fmt.Sprintf("tile %v, chunk %d", tile, chunk)
				m := guardedMatrix(n)
				want := make([]float64, len(m.peak))
				draw := func() []float64 {
					x := make([]float64, chunk*n)
					for k := range x {
						x[k] = drawEdge(rng)
					}
					return x
				}
				per := chunk // samples an Add counts; one for no VMs
				if n == 0 {
					per = 1
				}
				fed := 0
				for range 3 {
					fed += per
					checkAdd(t, m, want, draw(), fed, what)
				}
				m.Reset()
				clear(want)
				negZeros := make([]float64, chunk*n)
				for k := range negZeros {
					negZeros[k] = math.Copysign(0, -1)
				}
				checkAdd(t, m, want, negZeros, per, what+", all −0 after Reset")
				for _, w := range m.peak {
					if math.Float64bits(w) != 0 {
						t.Fatalf("%s: n %d: all −0 after Reset left a peak %v, want +0", what, n, w)
					}
				}
				fed = per
				for range 3 {
					fed += per
					checkAdd(t, m, want, draw(), fed, what+", after Reset")
				}
				if n > 40 || chunk > 5 {
					continue
				}
				for _, special := range []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)} {
					for p := range n {
						m.Reset()
						clear(want)
						x := make([]float64, chunk*n)
						for k := range x {
							if k%n == p {
								x[k] = special
							} else if special == 0 {
								x[k] = math.Copysign(0, -1)
							} else {
								x[k] = math.Exp(rng.NormFloat64())
							}
						}
						checkAdd(t, m, want, x, chunk, fmt.Sprintf("%s, %v at VM %d", what, special, p))
					}
				}
			}
		}
	}
}

// TestAddChunksMatchPerSampleP2: a percentile reference fed in chunks
// gives every estimator the samples in order, exactly as one sample per
// Add does.
func TestAddChunksMatchPerSampleP2(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 5, 9} {
		for _, chunk := range []int{1, 2, 5, 12, 64} {
			got, want := NewCostMatrix(n, 0.9), NewCostMatrix(n, 0.9)
			for range 3 {
				x := make([]float64, chunk*n)
				for k := range x {
					x[k] = math.Exp(rng.NormFloat64())
				}
				got.Add(x)
				for s := range chunk {
					want.Add(x[s*n : (s+1)*n])
				}
			}
			if got.Samples() != want.Samples() || got.Samples() != 3*chunk {
				t.Fatalf("n %d, chunk %d: Samples() = %d, one at a time %d", n, chunk, got.Samples(), want.Samples())
			}
			for k := range got.p2 {
				if g, w := got.ref(k), want.ref(k); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("n %d, chunk %d: entry %d = %v, one at a time %v", n, chunk, k, g, w)
				}
			}
		}
	}
}

// TestAddLengthContract: a chunk must hold a positive whole number of
// samples, and a matrix of no VMs counts each empty Add as one sample.
func TestAddLengthContract(t *testing.T) {
	for _, pctl := range []float64{1, 0.9} {
		m := NewCostMatrix(3, pctl)
		for _, bad := range []int{0, 1, 2, 4, 5, 7} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("pctl %v: Add of %d values to 3 VMs did not panic", pctl, bad)
					}
				}()
				m.Add(make([]float64, bad))
			}()
		}
		if m.Samples() != 0 {
			t.Fatalf("pctl %v: rejected chunks counted %d samples", pctl, m.Samples())
		}
		m.Add(make([]float64, 6))
		m.Add(make([]float64, 3))
		if m.Samples() != 3 {
			t.Fatalf("pctl %v: chunks of 2 and 1 samples counted %d", pctl, m.Samples())
		}
		empty := NewCostMatrix(0, pctl)
		empty.Add(nil)
		empty.Add([]float64{})
		if empty.Samples() != 2 {
			t.Fatalf("pctl %v: two empty Adds to no VMs counted %d samples", pctl, empty.Samples())
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("pctl %v: Add of a value to no VMs did not panic", pctl)
				}
			}()
			empty.Add([]float64{1})
		}()
	}
}

// FuzzCostMatrixAdd is TestAddChunksMatchPerSampleFeed over raw bits:
// vms picks 1–20 VMs, chunk 1–64 samples per Add, and every 8 bytes of
// data are one sample value; the whole samples fed are cut into chunks
// (the last one shorter) and fed with and without the tile kernel.
func FuzzCostMatrixAdd(f *testing.F) {
	bits := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	f.Add(uint8(3), uint8(2), bits(1, 2, 3, 3, 2, 1, 0, negZero, 5))
	f.Add(uint8(4), uint8(1), bits(negZero, negZero, negZero, negZero, math.NaN(), 1, 2, 3))
	f.Add(uint8(12), uint8(3), bits(math.Inf(1), 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
		math.Inf(-1), 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, math.NaN(), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1))
	f.Add(uint8(17), uint8(5), bits(0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5, 9.5, 10.5, 11.5, 12.5, 13.5, 14.5, 15.5, 16.5))
	f.Fuzz(func(t *testing.T, vms, chunk uint8, data []byte) {
		n := int(vms)%20 + 1
		c := int(chunk)%64 + 1
		x := make([]float64, len(data)/8/n*n)
		for k := range x {
			x[k] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*k:]))
		}
		defer func(saved bool) { useTile = saved }(useTile)
		for _, tile := range []bool{hasTile, false} {
			useTile = tile
			m := guardedMatrix(n)
			want := make([]float64, len(m.peak))
			fed := 0
			for len(x) > fed*n {
				k := min(fed+c, len(x)/n)
				checkAdd(t, m, want, x[fed*n:k*n], k, fmt.Sprintf("tile %v, chunk %d", tile, c))
				fed = k
			}
		}
	})
}

// BenchmarkCostMatrixAdd compares Add's tile kernel with its per-sample
// path ("rows": useTile cleared, the Go loop peakRow one triangle row and
// one sample at a time) at 40, 400 and 2,000 VMs, fed chunks of 1, 12 and
// 64 samples.
// Each VM has 720 distinct lognormal samples, the window restarts every
// 720 samples as a monitoring period does, and ns/pair is per pair-sample.
func BenchmarkCostMatrixAdd(b *testing.B) {
	defer func(saved bool) { useTile = saved }(useTile)
	const period = 720
	for _, n := range []int{40, 400, 2000} {
		rng := rand.New(rand.NewSource(1))
		samples := make([]float64, period*n)
		for k := range samples {
			samples[k] = math.Exp(rng.NormFloat64() * 0.5)
		}
		for _, chunk := range []int{1, 12, 64} {
			for _, tile := range []bool{hasTile, false} {
				name := "rows"
				if tile {
					name = "tile"
				}
				b.Run(fmt.Sprintf("vms=%d/chunk=%d/%s", n, chunk, name), func(b *testing.B) {
					useTile = tile
					m := NewCostMatrix(n, 1)
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
				})
			}
		}
	}
}

// hasTile reports whether this host runs the tile kernel at all.
var hasTile = useTile
