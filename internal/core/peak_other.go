//go:build !amd64

package core

// peakRow raises each row[j] to v + rest[j] where that sum is larger.
// Only amd64 has a kernel; everywhere else it is the Go loop.
func peakRow(row, rest []float64, v float64) { peakRowGeneric(row, rest, v) }
