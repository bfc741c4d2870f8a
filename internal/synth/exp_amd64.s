// expKernel for amd64: exp of four float64s at a time in AVX2 and FMA,
// with exactly the bits that exp, and the FMA path of the standard
// library's math/exp_amd64.s, give for each one.
//
// Why the bits match
//
// Every lane runs the scalar FMA path's operations in its order, and each
// packed instruction rounds its lane as the scalar one rounds its value:
//
//	MULSD LOG2E                 VMULPD
//	CVTSD2SL, CVTSL2SD          VCVTPD2DQY, VCVTDQ2PD
//	VFNMADD231SD LN2U, LN2L     VFNMADD231PD
//	MULSD 0.0625                VMULPD
//	VFMADD213SD (seven steps)   VFMADD213PD
//	MULSD, VADDSD 2, MULSD...   VMULPD, VADDPD, VMULPD...
//	VFMADD213SD 1               VFMADD213PD
//	ldexp: SHLQ $52, MULSD      VPADDD, VPMOVSXDQ, VPSLLQ $52, VMULPD
//
// CVTSD2SL and VCVTPD2DQ both round to nearest even under the MXCSR
// setting Go runs with. The scalar code's branches (non-finite input, an
// argument above 709.78, a scale that overflows or leaves a subnormal)
// are taken by no value in [−708, 709], so a block is exponentiated here
// only when every lane lies in that range; the caller runs the Go exp on
// any other block and on a tail of fewer than four.
//
// Constants are 32-byte rows of four equal lanes, read as memory operands
// (VEX memory operands need no alignment).

#include "textflag.h"

#define ROW(off, v) \
	DATA expconst<>+(off)(SB)/8, v; \
	DATA expconst<>+(off+8)(SB)/8, v; \
	DATA expconst<>+(off+16)(SB)/8, v; \
	DATA expconst<>+(off+24)(SB)/8, v

ROW(0, $1.4426950408889634073599246810018920)       // LOG2E
ROW(32, $0.69314718055966295651160180568695068359375) // LN2U
ROW(64, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
ROW(96, $0.0625)
ROW(128, $2.4801587301587301587e-5) // Taylor coefficients, 1/8! down to 1
ROW(160, $1.9841269841269841270e-4)
ROW(192, $1.3888888888888888889e-3)
ROW(224, $8.3333333333333333333e-3)
ROW(256, $4.1666666666666666667e-2)
ROW(288, $1.6666666666666666667e-1)
ROW(320, $0.5)
ROW(352, $1.0)
ROW(384, $2.0)
ROW(416, $-708.0) // expMin
ROW(448, $709.0)  // expMax
DATA expconst<>+480(SB)/8, $0x000003ff000003ff // exponent bias, four int32 lanes
DATA expconst<>+488(SB)/8, $0x000003ff000003ff
GLOBL expconst<>(SB), RODATA, $496

#define LOG2E expconst<>+0(SB)
#define LN2U expconst<>+32(SB)
#define LN2L expconst<>+64(SB)
#define SIXTEENTH expconst<>+96(SB)
#define C8 expconst<>+128(SB)
#define C7 expconst<>+160(SB)
#define C6 expconst<>+192(SB)
#define C5 expconst<>+224(SB)
#define C4 expconst<>+256(SB)
#define C3 expconst<>+288(SB)
#define HALF expconst<>+320(SB)
#define ONE expconst<>+352(SB)
#define TWO expconst<>+384(SB)
#define MIN expconst<>+416(SB)
#define MAX expconst<>+448(SB)
#define BIAS expconst<>+480(SB)

// func expKernel(xs []float64) int
TEXT ·expKernel(SB), NOSPLIT, $0-32
	MOVQ xs_base+0(FP), SI
	MOVQ xs_len+8(FP), CX
	XORQ AX, AX // values replaced
	SHRQ $2, CX // whole blocks of four
	JZ   done

block:
	VMOVUPD (SI)(AX*8), Y0 // x
	// Every lane in [MIN, MAX]: both ordered compares are false on NaN.
	VCMPPD    $0x1d, MIN, Y0, Y1 // x >= MIN
	VCMPPD    $0x12, MAX, Y0, Y2 // x <= MAX
	VANDPD    Y1, Y2, Y1
	VMOVMSKPD Y1, DX
	CMPL      DX, $0xf
	JNE       done

	// e = round(x·LOG2E), k = float64(e); r = (x − k·LN2U − k·LN2L)/16.
	VMULPD       LOG2E, Y0, Y1
	VCVTPD2DQY   Y1, X2
	VCVTDQ2PD    X2, Y1
	VFNMADD231PD LN2U, Y1, Y0
	VFNMADD231PD LN2L, Y1, Y0
	VMULPD       SIXTEENTH, Y0, Y0

	// p = ((C8·r + C7)·r + … + 0.5)·r + 1
	VMOVUPD     C8, Y1
	VFMADD213PD C7, Y0, Y1
	VFMADD213PD C6, Y0, Y1
	VFMADD213PD C5, Y0, Y1
	VFMADD213PD C4, Y0, Y1
	VFMADD213PD C3, Y0, Y1
	VFMADD213PD HALF, Y0, Y1
	VFMADD213PD ONE, Y0, Y1

	// y = r·p = e^r − 1; four times y = (y+2)·y, the last one plus 1.
	VMULPD      Y1, Y0, Y0
	VADDPD      TWO, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      TWO, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      TWO, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      TWO, Y0, Y1
	VFMADD213PD ONE, Y1, Y0

	// y · 2^e: e+1023 is in [2, 2046], the biased exponent of a normal.
	VPADDD    BIAS, X2, X2
	VPMOVSXDQ X2, Y2
	VPSLLQ    $52, Y2, Y2
	VMULPD    Y2, Y0, Y0

	VMOVUPD Y0, (SI)(AX*8)
	ADDQ    $4, AX
	DECQ    CX
	JNZ     block

done:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET
