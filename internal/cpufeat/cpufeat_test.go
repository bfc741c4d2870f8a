package cpufeat

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestFeaturesMatchTheKernel: off amd64 no feature is reported. On Linux
// the probe agrees with the kernel's own "avx2" and "fma" flags in
// /proc/cpuinfo, which Linux drops when it does not save the YMM state.
func TestFeaturesMatchTheKernel(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if AVX2 || FMA {
			t.Fatalf("AVX2 %v, FMA %v on %s, want both false", AVX2, FMA, runtime.GOARCH)
		}
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to compare with: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		has := map[string]bool{}
		for _, f := range strings.Fields(flags) {
			has[f] = true
		}
		if AVX2 != has["avx2"] || FMA != has["fma"] {
			t.Fatalf("AVX2 %v, FMA %v; /proc/cpuinfo lists avx2 %v, fma %v", AVX2, FMA, has["avx2"], has["fma"])
		}
		return
	}
	t.Skip("/proc/cpuinfo lists no flags")
}
