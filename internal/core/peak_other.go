//go:build !amd64

package core

// useTile is false: only amd64 has a tile kernel, and everywhere else Add
// runs peakRow one sample at a time.
var useTile = false

// peakRow raises each row[j] to v + rest[j] where that sum is larger.
// Only amd64 has a kernel; everywhere else it is the Go loop.
func peakRow(row, rest []float64, v float64) { peakRowGeneric(row, rest, v) }

// tileAVX2 is never called without useTile.
func tileAVX2(tri, x *float64, cols, n, t int) { panic("core: no tile kernel") }
