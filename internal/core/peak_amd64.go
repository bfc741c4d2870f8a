package core

// peakRow raises each row[j] to v + rest[j] where that sum is larger,
// exactly as peakRowGeneric does, in the SSE2 kernel of peak_amd64.s.
// len(row) must be at least len(rest): the kernel reads rest and writes
// row[:len(rest)] without a bounds check, so its one caller slices row to
// len(rest) first.
//
//go:noescape
func peakRow(row, rest []float64, v float64)
