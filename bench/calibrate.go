package main

import (
	"sort"
	"time"
)

// On a shared machine the host's load changes how fast this process runs,
// by up to 2x for minutes at a time, which would swamp any change to the
// engine. Each set-up and timed iteration is therefore preceded by a fixed
// kernel that slows down the same way: sorting a copy of one pseudo-random
// slice, the operation behind the engine's percentile history. run_s and
// setup_s are reported in reference seconds, wall time × refKernelSeconds ÷
// the process's median kernel time; raw wall times are kept as wall_s.

// refKernelSeconds is the kernel's time on an idle 2-vCPU Xeon VM with
// Go 1.24, the machine the baseline in README.md was measured on.
const refKernelSeconds = 0.022

var kernelInput = func() []float64 {
	x := make([]float64, 200_000)
	v := uint64(88172645463325252) // xorshift64 state
	for i := range x {
		v ^= v << 13
		v ^= v >> 7
		v ^= v << 17
		x[i] = float64(v>>11) / (1 << 53)
	}
	return x
}()

// kernelSeconds times one run of the calibration kernel.
func kernelSeconds() float64 {
	start := time.Now()
	sort.Float64s(append([]float64(nil), kernelInput...))
	return time.Since(start).Seconds()
}
