package cpufeat

var avx2, fma = detect()

// cpuid returns the CPUID leaf eax, subleaf ecx.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of extended control register 0: the
// register state the operating system saves.
func xgetbv() (eax uint32)

// detect reads leaf 1 for FMA, OSXSAVE and AVX, XGETBV for the XMM and
// YMM state, and leaf 7 for AVX2. XGETBV runs only once OSXSAVE says the
// operating system enabled it.
func detect() (avx2, fma bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return false, false
	}
	const fmaBit, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false, false
	}
	const xmm, ymm = 1 << 1, 1 << 2
	if xgetbv()&(xmm|ymm) != xmm|ymm {
		return false, false
	}
	fma = ecx1&fmaBit != 0
	if maxLeaf >= 7 {
		const avx2Bit = 1 << 5
		_, ebx7, _, _ := cpuid(7, 0)
		avx2 = ebx7&avx2Bit != 0
	}
	return avx2, fma
}
