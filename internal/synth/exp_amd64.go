package synth

import "repro/internal/cpufeat"

// useKernel reports whether expInPlace runs expKernel: the CPU has AVX2
// and FMA, and the operating system saves the YMM registers. CPUID reports
// what the CPU has whatever GODEBUG says, so cpu.fma=off leaves the kernel
// on. Tests clear it to run the Go path on this host.
var useKernel = cpufeat.AVX2 && cpufeat.FMA

// expKernel exponentiates xs in place, four values at a time, with
// exactly exp's bits, in the AVX2 kernel of exp_amd64.s. It stops before
// the first block of four holding a value outside [expMin, expMax] and
// before a tail of fewer than four, and returns how many values it
// replaced. It needs AVX2 and FMA.
//
//go:noescape
func expKernel(xs []float64) int
