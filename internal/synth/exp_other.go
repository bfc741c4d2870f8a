//go:build !amd64

package synth

// useKernel is false: only amd64 has a vector kernel, and everywhere else
// expInPlace runs exp.
var useKernel = false

// expKernel replaces nothing, so expInPlace would run exp even with
// useKernel set.
func expKernel([]float64) int { return 0 }
