package synth

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// mathExpIsFMA reports whether math.Exp takes the FMA path of
// math/exp_amd64.s on this host, the one exp reproduces: the two amd64
// paths round e**−0.998 (the float64 with bits 0xbfefef9db22d0e56) to
// values one ulp apart. Elsewhere, and under GODEBUG=cpu.fma=off,
// math.Exp is no reference.
var mathExpIsFMA = math.Float64bits(math.Exp(math.Float64frombits(0xbfefef9db22d0e56))) == 0x3fd797674bcd495d

// expGuards is how many values past the end of a slice the kernel checks
// watch: a whole block, so a kernel that runs one block too far is caught.
const expGuards = 4

// checkExp requires expInPlace, with and without the kernel, and expKernel
// itself, to leave exactly exp's bits for every value of xs, and exp to
// give math.Exp's bits where math.Exp takes the FMA path. Each run works
// in place in a larger array whose values past the end must stay as they
// were; expKernel must stop at the first block holding a value outside
// [expMin, expMax].
func checkExp(t *testing.T, xs []float64) {
	t.Helper()
	n := len(xs)
	want := make([]float64, n)
	for i, x := range xs {
		want[i] = exp(x)
		if mathExpIsFMA && math.Float64bits(want[i]) != math.Float64bits(math.Exp(x)) {
			t.Fatalf("exp(%v) (%#x) = %#x, math.Exp %#x",
				x, math.Float64bits(x), math.Float64bits(want[i]), math.Float64bits(math.Exp(x)))
		}
	}
	guarded := func() []float64 {
		buf := make([]float64, n+expGuards)
		copy(buf, xs)
		for k := n; k < len(buf); k++ {
			buf[k] = 1
		}
		return buf
	}
	check := func(name string, buf []float64, done int) {
		t.Helper()
		for i := range n {
			v, w := buf[i], want[i]
			if i >= done {
				w = xs[i]
			}
			if math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("%s, len %d: [%d] = %v (%#x), want %v (%#x); x = %v (%#x)",
					name, n, i, v, math.Float64bits(v), w, math.Float64bits(w), xs[i], math.Float64bits(xs[i]))
			}
		}
		for k := n; k < len(buf); k++ {
			if buf[k] != 1 {
				t.Fatalf("%s, len %d: guard [%d] written: %v", name, n, k, buf[k])
			}
		}
	}

	defer func(saved bool) { useKernel = saved }(useKernel)
	for _, kernel := range []bool{false, hasKernel} {
		useKernel = kernel
		buf := guarded()
		expInPlace(buf[:n])
		check(fmt.Sprintf("expInPlace (kernel %v)", kernel), buf, n)
	}
	if !hasKernel {
		return
	}
	// The kernel alone: whole blocks up to the first with an outside lane.
	inRange := 0
	for inRange+4 <= n {
		ok := true
		for _, x := range xs[inRange : inRange+4] {
			ok = ok && x >= expMin && x <= expMax
		}
		if !ok {
			break
		}
		inRange += 4
	}
	buf := guarded()
	if done := expKernel(buf[:n]); done != inRange {
		t.Fatalf("len %d: expKernel replaced %d values, want %d", n, done, inRange)
	}
	check("expKernel", buf, inRange)
}

// hasKernel reports whether this host runs the vector kernel at all.
var hasKernel = useKernel

// expArgs returns n exponents as refine draws them: around the location of
// a mean in [0.02, 5] with the default sigma.
func expArgs(rng *rand.Rand, n int) []float64 {
	ln := NewLogNormal(DefaultDatacenterConfig().Sigma, rng.Int63())
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = ln.arg(ln.location(0.02 + 5*rng.Float64()))
	}
	return xs
}

// expSpecials are values that take each of exp's branches, sit just
// inside or outside the kernel's range, or make x·log2e a half-integer,
// whose tie CVTSD2SL and VCVTPD2DQ round to even.
var expSpecials = []float64{
	math.NaN(), math.Float64frombits(0xfff8000000000001), math.Inf(1), math.Inf(-1),
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1, -1,
	expMin, math.Nextafter(expMin, -1000), expMax, math.Nextafter(expMax, 1000),
	-708.5, -740, -745, -745.2, -746, -1e300, -math.MaxFloat64,
	709.5, 709.78, expOverflow, math.Nextafter(expOverflow, 1000), 709.8, 710, 1e300, math.MaxFloat64,
	0.34657359027997264, -0.34657359027997264, 1.7328679513998633, 69.6612916462745, // ±0.5, 2.5, 100.5
}

// TestExpMatchesMathExp: exp, expInPlace with and without the kernel, and
// the kernel alone give the same bits, and where math.Exp takes its FMA
// path, they are its bits. The inputs: lognormal arguments at every
// length 0–9 (so a tail of each length follows zero, one and two blocks);
// blocks holding one special value in each lane; a grid over
// [−750, 712); and random bit patterns.
func TestExpMatchesMathExp(t *testing.T) {
	if !mathExpIsFMA {
		t.Log("math.Exp does not take its FMA path here: exp is checked against the kernel alone")
	}
	rng := rand.New(rand.NewSource(29))
	for n := 0; n <= 9; n++ {
		for range 200 {
			checkExp(t, expArgs(rng, n))
		}
	}
	for _, s := range expSpecials {
		for lane := range 4 {
			xs := expArgs(rng, 9)
			xs[lane] = s
			checkExp(t, xs)
			xs = expArgs(rng, 9)
			xs[4+lane] = s // the same lane of the second block
			checkExp(t, xs)
		}
	}
	grid := make([]float64, 0, 1024)
	for x := -750.0; x < 712; x += 0.0137 {
		if grid = append(grid, x); len(grid) == cap(grid) {
			checkExp(t, grid)
			grid = grid[:0]
		}
	}
	checkExp(t, grid)
	xs := make([]float64, 1021)
	for range 200 {
		for i := range xs {
			xs[i] = math.Float64frombits(rng.Uint64())
		}
		checkExp(t, xs)
	}
}

// FuzzExp is TestExpMatchesMathExp over raw bits: every 8 bytes are one
// argument.
func FuzzExp(f *testing.F) {
	bits := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(bits(-0.998, 0.5, 1, 2, 3))
	f.Add(bits(-1, -2, -3, -4, math.NaN(), 6, 7, 8, 9))
	f.Add(bits(0, 1, 2, -745, 709.8, 1, 2, 3))
	f.Add(bits(math.Inf(-1), math.Inf(1), expMin, expMax, -708.5, 709.5))
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkExp(t, xs)
	})
}

// BenchmarkExp exponentiates 4,320 lognormal arguments, one six-hour
// trace of 5-second samples, with expInPlace (the kernel where the CPU
// has it), a loop over exp, and a loop over math.Exp. Each iteration
// first copies the arguments in, the same cost for all three.
func BenchmarkExp(b *testing.B) {
	args := expArgs(rand.New(rand.NewSource(1)), 4320)
	buf := make([]float64, len(args))
	for _, impl := range []struct {
		name string
		fn   func([]float64)
	}{
		{"kernel", expInPlace},
		{"go", func(xs []float64) {
			for i, x := range xs {
				xs[i] = exp(x)
			}
		}},
		{"math", func(xs []float64) {
			for i, x := range xs {
				xs[i] = math.Exp(x)
			}
		}},
	} {
		b.Run(impl.name, func(b *testing.B) {
			for b.Loop() {
				copy(buf, args)
				impl.fn(buf)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(args)), "ns/exp")
		})
	}
}
