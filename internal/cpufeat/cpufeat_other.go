//go:build !amd64

package cpufeat

// Only amd64 has the kernels these features select.
const avx2, fma = false, false
