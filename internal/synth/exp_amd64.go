package synth

// useKernel reports whether expInPlace runs expKernel: the CPU has AVX2
// and FMA, and the operating system saves the YMM registers. Tests clear
// it to run the Go path on this host.
var useKernel = hasAVX2FMA()

// expKernel exponentiates xs in place, four values at a time, with
// exactly exp's bits, in the AVX2 kernel of exp_amd64.s. It stops before
// the first block of four holding a value outside [expMin, expMax] and
// before a tail of fewer than four, and returns how many values it
// replaced. It needs AVX2 and FMA.
//
//go:noescape
func expKernel(xs []float64) int

// cpuid returns the CPUID leaf eax, subleaf ecx.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of extended control register 0: the
// register state the operating system saves.
func xgetbv() (eax uint32)

// hasAVX2FMA reads the CPU features expKernel needs. CPUID reports what
// the CPU has whatever GODEBUG says, so cpu.fma=off leaves the kernel on.
func hasAVX2FMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	const xmm, ymm = 1 << 1, 1 << 2
	if xgetbv()&(xmm|ymm) != xmm|ymm {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
