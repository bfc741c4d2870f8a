//go:build !amd64

package core

// useTile is false: only amd64 has a tile kernel, and everywhere else Add
// runs the Go loop peakRow one sample at a time.
var useTile = false

// tileAVX2 is never called without useTile.
func tileAVX2(tri, x *float64, cols, n, t int) { panic("core: no tile kernel") }
