package core

import "repro/internal/cpufeat"

// useTile reports whether Add feeds a peak reference's chunks through
// tileAVX2: the CPU has AVX2 and the operating system saves the YMM
// registers. Without it Add runs the Go loop peakRow one sample at a
// time. Tests clear it to run that path on this host.
var useTile = cpufeat.AVX2

// tileAVX2 feeds the triangle rows i..i+3 every sample of a chunk, in the
// AVX2 kernel of peak_amd64.s, with exactly the bits peakRow leaves when
// fed the samples one at a time. tri points at row i's first pair,
// (i, i+1); x at VM i's value in the chunk's first sample; cols = n−i−4
// is how many columns past i+3 each row pairs with; n is the VM count and
// the samples' stride; and t ≥ 1 is the chunk's sample count. Nothing is
// bounds-checked, so its one caller derives every argument from slices.
//
//go:noescape
func tileAVX2(tri, x *float64, cols, n, t int)
