// tileAVX2 for amd64: the pair-peak update of four triangle rows i..i+3
// over every sample of a chunk, in AVX2.
//
// The pairs (r, j) with r in i..i+3 and j >= i+4 form four rows of
// contiguous peaks, one per triangle row, and run in tiles of four rows
// by eight columns: 32 peaks held in eight YMM registers while every
// sample of the chunk goes through them, then stored once. Per sample a
// tile loads x[j..j+7] in two YMMs, broadcasts each x[r] with
// VBROADCASTSD, and updates each register with one VADDPD and one
// VMAXPD. One tile of four columns follows where four or more columns
// remain, and the last cols mod 4 columns, and the six pairs among the
// four rows themselves, run in VEX scalar registers the same way.
//
// Why it is bit-identical to peakRow fed one sample at a time
//
// In Go assembler syntax VMAXPD Ypeak, Ysum, Ypeak leaves (sum > peak ?
// sum : peak) in Ypeak. When the values are equal (including +0 against
// −0) or either is NaN, the comparison is false and the result is the
// old peak, just as peakRow's
//
//	if s := v + w; s > row[j] { row[j] = s }
//
// keeps row[j] in those cases: the operand order is the whole of the
// argument, and swapping it stores the sum on ties and NaN. VMAXSD does
// the same for one lane. Every sum is x[r] + x[j], the IEEE-754 double
// add v + w of the Go loop, and a NaN sum never replaces a peak, so NaN
// payloads cannot differ. A peak starts at +0 (NewCostMatrix, Reset) and
// only ever rises, so after any set of sums it is its old value if no
// sum exceeds it, and otherwise the largest sum, whose bits are unique
// because it lies above +0: the order in which a chunk's samples reach a
// peak changes no bit.
//
// A column tile runs only while its eight (or four) columns exist, so
// no peak past a row's end is read or written.

#include "textflag.h"

// func tileAVX2(tri, x *float64, cols, n, t int)
TEXT ·tileAVX2(SB), NOSPLIT, $0-40
	MOVQ tri+0(FP), DI   // row i's first pair, (i, i+1)
	MOVQ x+8(FP), SI     // x[i] in the first sample
	MOVQ cols+16(FP), R8 // columns past the strip: n − i − 4
	MOVQ n+24(FP), R9
	SHLQ $3, R9          // the samples' stride in bytes
	MOVQ t+32(FP), R10
	IMULQ R9, R10
	ADDQ SI, R10         // x[i] one sample past the chunk

	// Row i has cols+3 pairs, row i+1 cols+2, row i+2 cols+1.
	LEAQ 24(DI)(R8*8), BX // row i+1
	LEAQ 16(BX)(R8*8), CX // row i+2
	LEAQ 8(CX)(R8*8), DX  // row i+3

	// The six pairs among the four rows: the first three of row i, the
	// first two of row i+1 and the first of row i+2.
	VMOVSD 0(DI), X0 // (i, i+1)
	VMOVSD 8(DI), X1 // (i, i+2)
	VMOVSD 16(DI), X2 // (i, i+3)
	VMOVSD 0(BX), X3 // (i+1, i+2)
	VMOVSD 8(BX), X4 // (i+1, i+3)
	VMOVSD 0(CX), X5 // (i+2, i+3)
	MOVQ   SI, AX

inner:
	VMOVSD 0(AX), X6
	VMOVSD 8(AX), X7
	VMOVSD 16(AX), X8
	VMOVSD 24(AX), X9
	VADDSD X7, X6, X10
	VMAXSD X0, X10, X0
	VADDSD X8, X6, X11
	VMAXSD X1, X11, X1
	VADDSD X9, X6, X12
	VMAXSD X2, X12, X2
	VADDSD X8, X7, X13
	VMAXSD X3, X13, X3
	VADDSD X9, X7, X14
	VMAXSD X4, X14, X4
	VADDSD X9, X8, X15
	VMAXSD X5, X15, X5
	ADDQ   R9, AX
	CMPQ   AX, R10
	JNE    inner
	VMOVSD X0, 0(DI)
	VMOVSD X1, 8(DI)
	VMOVSD X2, 16(DI)
	VMOVSD X3, 0(BX)
	VMOVSD X4, 8(BX)
	VMOVSD X5, 0(CX)

	// Each row's pair with column i+4, and x[i+4] in the first sample.
	ADDQ $24, DI
	ADDQ $16, BX
	ADDQ $8, CX
	LEAQ 32(SI), R11

	MOVQ R8, R13
	SHRQ $3, R13 // tiles of eight columns
	JZ   four

eight:
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 0(BX), Y2
	VMOVUPD 32(BX), Y3
	VMOVUPD 0(CX), Y4
	VMOVUPD 32(CX), Y5
	VMOVUPD 0(DX), Y6
	VMOVUPD 32(DX), Y7
	MOVQ    SI, AX
	MOVQ    R11, R12

eightSample:
	VMOVUPD      0(R12), Y8
	VMOVUPD      32(R12), Y9
	VBROADCASTSD 0(AX), Y10
	VADDPD       Y8, Y10, Y11
	VMAXPD       Y0, Y11, Y0
	VADDPD       Y9, Y10, Y12
	VMAXPD       Y1, Y12, Y1
	VBROADCASTSD 8(AX), Y13
	VADDPD       Y8, Y13, Y14
	VMAXPD       Y2, Y14, Y2
	VADDPD       Y9, Y13, Y15
	VMAXPD       Y3, Y15, Y3
	VBROADCASTSD 16(AX), Y10
	VADDPD       Y8, Y10, Y11
	VMAXPD       Y4, Y11, Y4
	VADDPD       Y9, Y10, Y12
	VMAXPD       Y5, Y12, Y5
	VBROADCASTSD 24(AX), Y13
	VADDPD       Y8, Y13, Y14
	VMAXPD       Y6, Y14, Y6
	VADDPD       Y9, Y13, Y15
	VMAXPD       Y7, Y15, Y7
	ADDQ         R9, AX
	ADDQ         R9, R12
	CMPQ         AX, R10
	JNE          eightSample

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 0(BX)
	VMOVUPD Y3, 32(BX)
	VMOVUPD Y4, 0(CX)
	VMOVUPD Y5, 32(CX)
	VMOVUPD Y6, 0(DX)
	VMOVUPD Y7, 32(DX)
	ADDQ    $64, DI
	ADDQ    $64, BX
	ADDQ    $64, CX
	ADDQ    $64, DX
	ADDQ    $64, R11
	DECQ    R13
	JNZ     eight

four:
	TESTQ $4, R8 // one tile of four columns
	JZ    scalar
	VMOVUPD 0(DI), Y0
	VMOVUPD 0(BX), Y2
	VMOVUPD 0(CX), Y4
	VMOVUPD 0(DX), Y6
	MOVQ    SI, AX
	MOVQ    R11, R12

fourSample:
	VMOVUPD      0(R12), Y8
	VBROADCASTSD 0(AX), Y10
	VADDPD       Y8, Y10, Y11
	VMAXPD       Y0, Y11, Y0
	VBROADCASTSD 8(AX), Y13
	VADDPD       Y8, Y13, Y14
	VMAXPD       Y2, Y14, Y2
	VBROADCASTSD 16(AX), Y10
	VADDPD       Y8, Y10, Y12
	VMAXPD       Y4, Y12, Y4
	VBROADCASTSD 24(AX), Y13
	VADDPD       Y8, Y13, Y15
	VMAXPD       Y6, Y15, Y6
	ADDQ         R9, AX
	ADDQ         R9, R12
	CMPQ         AX, R10
	JNE          fourSample

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y2, 0(BX)
	VMOVUPD Y4, 0(CX)
	VMOVUPD Y6, 0(DX)
	ADDQ    $32, DI
	ADDQ    $32, BX
	ADDQ    $32, CX
	ADDQ    $32, DX
	ADDQ    $32, R11

scalar:
	ANDQ $3, R8 // the last cols mod 4 columns, one at a time
	JZ   done

column:
	VMOVSD 0(DI), X0
	VMOVSD 0(BX), X1
	VMOVSD 0(CX), X2
	VMOVSD 0(DX), X3
	MOVQ   SI, AX
	MOVQ   R11, R12

columnSample:
	VMOVSD 0(R12), X8
	VMOVSD 0(AX), X6
	VADDSD X8, X6, X10
	VMAXSD X0, X10, X0
	VMOVSD 8(AX), X7
	VADDSD X8, X7, X11
	VMAXSD X1, X11, X1
	VMOVSD 16(AX), X6
	VADDSD X8, X6, X12
	VMAXSD X2, X12, X2
	VMOVSD 24(AX), X7
	VADDSD X8, X7, X13
	VMAXSD X3, X13, X3
	ADDQ   R9, AX
	ADDQ   R9, R12
	CMPQ   AX, R10
	JNE    columnSample

	VMOVSD X0, 0(DI)
	VMOVSD X1, 0(BX)
	VMOVSD X2, 0(CX)
	VMOVSD X3, 0(DX)
	ADDQ   $8, DI
	ADDQ   $8, BX
	ADDQ   $8, CX
	ADDQ   $8, DX
	ADDQ   $8, R11
	DECQ   R8
	JNZ    column

done:
	VZEROUPPER
	RET
