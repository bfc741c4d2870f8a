// Package cpufeat reports, once at start-up, the x86 vector features the
// repository's assembly kernels need: internal/core's AVX2 pair-peak tiles
// and internal/synth's AVX2 + FMA exp. A feature counts only when the CPU
// has it (CPUID) and the operating system saves the YMM registers on a
// context switch (OSXSAVE, and XGETBV reporting the XMM and YMM state).
// CPUID reads the hardware, so GODEBUG settings such as cpu.fma=off,
// which steer the standard library's own choices, leave these unchanged.
// Off amd64 every feature is false.
//
// A kernel's package copies the features it needs into a variable of its
// own, which its tests clear to run the Go path on any host.
package cpufeat

// AVX2 reports whether 256-bit integer and floating-point vector
// instructions (AVX and AVX2) can run.
var AVX2 = avx2

// FMA reports whether the VEX-encoded fused multiply-add instructions can
// run.
var FMA = fma
