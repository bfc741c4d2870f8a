// Package datasettest compares workload datasets in tests: two datasets
// are equal when their names, sampling intervals and sample bits are.
// Comparing through encoding/json is no substitute, since model.Series
// has no exported fields and marshals as {}.
package datasettest

import (
	"fmt"
	"math"

	"repro/pkg/dcsim/model"
)

// Diff describes the first difference between two datasets' names,
// sampling intervals and sample bits, or returns "".
func Diff(got, want *model.Dataset) string {
	if len(got.Names) != len(want.Names) || len(got.Fine) != len(want.Fine) {
		return fmt.Sprintf("%d names and %d traces, want %d and %d", len(got.Names), len(got.Fine), len(want.Names), len(want.Fine))
	}
	for i, s := range got.Fine {
		w := want.Fine[i]
		if got.Names[i] != want.Names[i] || s.Len() != w.Len() || s.Interval() != w.Interval() {
			return fmt.Sprintf("VM %d is %q, %d samples at %v; want %q, %d at %v",
				i, got.Names[i], s.Len(), s.Interval(), want.Names[i], w.Len(), w.Interval())
		}
		for j, v := range s.Samples() {
			if math.Float64bits(v) != math.Float64bits(w.At(j)) {
				return fmt.Sprintf("VM %d sample %d is %v, want %v", i, j, v, w.At(j))
			}
		}
	}
	return ""
}
