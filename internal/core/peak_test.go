package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// peakGuards is how many values past the end of row and rest the
// differential checks watch: a whole block of eight, so a kernel that
// runs one block too far is caught.
const peakGuards = 8

// checkPeakRow runs peakRow and peakRowGeneric on copies of the same row
// and requires every resulting peak to match bit for bit. Both slices sit
// in larger backing arrays whose values past the end must stay as they
// were, and rest must not change at all.
func checkPeakRow(t *testing.T, row, rest []float64, v float64) {
	t.Helper()
	n := len(rest)
	// A guard peak of −Inf is raised by any finite sum an overrun forms
	// with the 1s past rest's end.
	got := make([]float64, n+peakGuards)
	copy(got, row)
	for k := n; k < len(got); k++ {
		got[k] = math.Inf(-1)
	}
	in := make([]float64, n+peakGuards)
	copy(in, rest)
	for k := n; k < len(in); k++ {
		in[k] = 1
	}
	want := append([]float64(nil), row...)
	peakRowGeneric(want, rest, v)

	peakRow(got[:n], in[:n], v)
	for j := range n {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("len %d, v %v: row[%d] = %v (%#x), generic %v (%#x); peak %v, rest %v",
				n, v, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]), row[j], rest[j])
		}
	}
	for k := n; k < len(got); k++ {
		if !math.IsInf(got[k], -1) {
			t.Fatalf("len %d: guard row[%d] written: %v", n, k, got[k])
		}
	}
	for j, w := range in[:n] {
		if math.Float64bits(w) != math.Float64bits(rest[j]) {
			t.Fatalf("len %d: rest[%d] changed from %v to %v", n, j, rest[j], w)
		}
	}
}

// TestPeakRowMatchesGeneric: the kernel leaves every peak with exactly
// the bits the Go loop leaves, at every row length from 0 to 70 (so each
// tail length 0–7 follows several blocks of eight), over values that
// probe the comparison's edges: signed zeros, NaN, infinities, the
// smallest subnormal, the largest finite value, and ordinary samples.
func TestPeakRowMatchesGeneric(t *testing.T) {
	palette := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64,
	}
	rng := rand.New(rand.NewSource(23))
	draw := func() float64 {
		if k := rng.Intn(2 * len(palette)); k < len(palette) {
			return palette[k]
		}
		return rng.NormFloat64()
	}
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 200; trial++ {
			row := make([]float64, n)
			rest := make([]float64, n)
			for j := range n {
				row[j], rest[j] = draw(), draw()
			}
			checkPeakRow(t, row, rest, draw())
		}
	}
}

// FuzzPeakRow is TestPeakRowMatchesGeneric over raw bits: v is one
// float64's bits, and every 16 bytes of data are one pair's rest sample
// and stored peak.
func FuzzPeakRow(f *testing.F) {
	bits := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(math.Float64bits(1), bits(1, 2, 3, 0))
	f.Add(math.Float64bits(0), bits(math.Copysign(0, -1), 0, 0, math.Copysign(0, -1)))
	f.Add(math.Float64bits(math.NaN()), bits(1, 2, math.Inf(1), math.NaN()))
	f.Add(math.Float64bits(math.Inf(-1)), bits(math.Inf(1), 7, 5e-324, math.MaxFloat64,
		1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18))
	// Eleven pairs, each of whose peaks the sum raises: one block and a
	// tail of three.
	f.Add(math.Float64bits(0.5), bits(1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 10, 0, 11, 0))
	f.Fuzz(func(t *testing.T, v uint64, data []byte) {
		n := len(data) / 16
		row := make([]float64, n)
		rest := make([]float64, n)
		for j := range n {
			rest[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*j:]))
			row[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*j+8:]))
		}
		checkPeakRow(t, row, rest, math.Float64frombits(v))
	})
}

// BenchmarkPeakRow compares the architecture's peakRow with the Go loop
// on one triangle row of the 40-, 400- and 2,000-VM matrices. Each call
// feeds the next of 720 distinct samples (windows sliding over one
// lognormal series, so some peaks still move) and the row restarts every
// 720 calls, as a monitoring period does.
func BenchmarkPeakRow(b *testing.B) {
	const period = 720
	for _, n := range []int{39, 399, 1999} {
		rng := rand.New(rand.NewSource(1))
		series := make([]float64, period+n+1)
		for k := range series {
			series[k] = math.Exp(rng.NormFloat64() * 0.5)
		}
		for _, impl := range []struct {
			name string
			fn   func(row, rest []float64, v float64)
		}{{"kernel", peakRow}, {"generic", peakRowGeneric}} {
			b.Run(fmt.Sprintf("len=%d/%s", n, impl.name), func(b *testing.B) {
				row := make([]float64, n)
				k := 0
				for b.Loop() {
					if k == period {
						k = 0
						clear(row)
					}
					impl.fn(row, series[k+1:k+1+n], series[k])
					k++
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/pair")
			})
		}
	}
}
