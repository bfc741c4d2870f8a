package synth

import "math"

// The refinement's exponential. Go's amd64 math.Exp has two paths in
// math/exp_amd64.s, chosen by whether the CPU has FMA, and they round some
// results differently; other architectures have their own. A population
// drawn with math.Exp would therefore depend on the host. exp is instead
// the FMA path itself, written in Go, so every host draws the bits that
// amd64 with FMA draws: math.FMA rounds once everywhere (in software where
// the CPU has no FMA), and the explicit float64 conversions round every
// other product before it is used, so no compiler fuses one.
//
// The method is Shibata's ("Efficient evaluation methods of elementary
// functions suitable for SIMD computation", ISC 2010; the SLEEF library),
// as math/exp_amd64.s simplifies it: reduce x by k·ln2 with k the nearest
// integer to x/ln2, divide the remainder by 16, evaluate a degree-8 Taylor
// polynomial of e^r − 1, square four times as (y+2)·y, and scale by 2^k.
// The constants are the assembly's.
//
// One host dependence stays: math/rand's NormFloat64, which draws the
// exponents, calls math.Exp in its ziggurat's wedge test and compares the
// result rounded to float32. Two hosts whose math.Exp differ could pick
// different normals there only if a last-bit difference crossed a float32
// rounding boundary; no pinned population shows one.
const (
	expLog2e    = 1.4426950408889634073599246810018920
	expLn2Hi    = 0.69314718055966295651160180568695068359375
	expLn2Lo    = 0.28235290563031577122588448175013436025525412068e-12
	expOverflow = 7.09782712893384e+02

	// expMin and expMax bound the arguments the vector kernel takes: in
	// [expMin, expMax] the scaled result is a normal float64, so neither
	// the overflow nor the subnormal branch of exp can be taken.
	expMin = -708
	expMax = 709
)

// exp returns e**x with the bits of math/exp_amd64.s's FMA path, special
// cases included: NaN and +Inf return x, −Inf returns 0, x above
// expOverflow or k above 1023 returns +Inf, and k below −1075 returns +0.
func exp(x float64) float64 {
	bits := math.Float64bits(x)
	if bits&^(1<<63) >= 0x7FF0000000000000 { // NaN or ±Inf
		if x < 0 {
			return 0
		}
		return x
	}
	if x > expOverflow {
		return math.Inf(1)
	}
	// CVTSD2SL: round to nearest even; a value outside int32's range
	// converts to MinInt32, which takes the underflow branch below.
	t := float64(expLog2e * x)
	e := int32(math.MinInt32)
	if t >= math.MinInt32 {
		e = int32(math.RoundToEven(t))
	}
	k := float64(e)
	r := math.FMA(-k, expLn2Hi, x)
	r = math.FMA(-k, expLn2Lo, r)
	r = float64(r * 0.0625)
	p := math.FMA(2.4801587301587301587e-5, r, 1.9841269841269841270e-4)
	p = math.FMA(p, r, 1.3888888888888888889e-3)
	p = math.FMA(p, r, 8.3333333333333333333e-3)
	p = math.FMA(p, r, 4.1666666666666666667e-2)
	p = math.FMA(p, r, 1.6666666666666666667e-1)
	p = math.FMA(p, r, 0.5)
	p = math.FMA(p, r, 1)
	y := float64(r * p)
	y = float64(y * float64(y+2))
	y = float64(y * float64(y+2))
	y = float64(y * float64(y+2))
	y = math.FMA(y, float64(y+2), 1)
	// Scale by 2^e, in two steps when the result is subnormal.
	e += 0x3FF
	if e <= 0 {
		if e < -52 {
			return 0
		}
		y *= math.Float64frombits(uint64(e+0x3FE) << 52)
		e = 1
	} else if e >= 0x7FF {
		return math.Inf(1)
	}
	return y * math.Float64frombits(uint64(e)<<52)
}

// expInPlace replaces every xs[i] with exp(xs[i]). Where the CPU has the
// vector kernel, it exponentiates whole blocks of four; a block holding a
// value outside [expMin, expMax], NaN included, and a tail of fewer than
// four go through exp.
func expInPlace(xs []float64) {
	if !useKernel {
		for i, x := range xs {
			xs[i] = exp(x)
		}
		return
	}
	for len(xs) > 0 {
		xs = xs[expKernel(xs):]
		n := min(len(xs), 4)
		for i, x := range xs[:n] {
			xs[i] = exp(x)
		}
		xs = xs[n:]
	}
}
