// peakRow for amd64: the Eqn-1 pair-peak update of one triangle row,
// eight pairs per loop iteration in SSE2, which every amd64 CPU has
// (GOAMD64=v1), so no CPU feature check is needed.
//
// Why it is bit-identical to peakRowGeneric's
//
//	if s := v + w; s > row[j] { row[j] = s }
//
// In Go assembler syntax, MAXPD Xpeak, Xsum leaves (sum > peak ? sum :
// peak) in Xsum; MAXSD does the same for one lane. When the values are
// equal (including +0 against −0) or either is NaN, the comparison is
// false and the result is the source operand, the old peak, just as the
// Go loop keeps row[j] in those cases. The operand order is therefore
// the whole of the argument: swapping it stores the sum on ties and NaN.
// Each ADDPD lane is the same IEEE-754 double add as v + w, and a NaN sum
// never replaces a peak in either version, so NaN payloads cannot differ.
//
// Every load and store is an unaligned MOVUPD or MOVSD: the rows of the
// flat triangle are not 16-byte aligned, and legacy-SSE ADDPD/MAXPD
// memory operands would fault on them.

#include "textflag.h"

// func peakRow(row, rest []float64, v float64)
TEXT ·peakRow(SB), NOSPLIT, $0-56
	MOVQ  row_base+0(FP), DI
	MOVQ  rest_base+24(FP), SI
	MOVQ  rest_len+32(FP), CX
	MOVSD v+48(FP), X0
	SHUFPD $0, X0, X0 // v in both lanes
	MOVQ  CX, BX
	SHRQ  $3, BX      // blocks of eight pairs
	JZ    tail

block:
	MOVUPD 0(SI), X1
	MOVUPD 16(SI), X2
	MOVUPD 32(SI), X3
	MOVUPD 48(SI), X4
	ADDPD  X0, X1
	ADDPD  X0, X2
	ADDPD  X0, X3
	ADDPD  X0, X4
	MOVUPD 0(DI), X5
	MOVUPD 16(DI), X6
	MOVUPD 32(DI), X7
	MOVUPD 48(DI), X8
	MAXPD  X5, X1
	MAXPD  X6, X2
	MAXPD  X7, X3
	MAXPD  X8, X4
	MOVUPD X1, 0(DI)
	MOVUPD X2, 16(DI)
	MOVUPD X3, 32(DI)
	MOVUPD X4, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	DECQ   BX
	JNZ    block

tail:
	ANDQ $7, CX // the last len(rest) mod 8 pairs
	JZ   done

pair:
	MOVSD (SI), X1
	ADDSD X0, X1
	MOVSD (DI), X5
	MAXSD X5, X1
	MOVSD X1, (DI)
	ADDQ  $8, SI
	ADDQ  $8, DI
	DECQ  CX
	JNZ   pair

done:
	RET
