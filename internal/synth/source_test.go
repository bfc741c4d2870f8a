package synth

import (
	"math"
	"math/rand"
	"testing"
)

// sourceDraws is how many values of each kind a seed's streams are
// compared over.
const sourceDraws = 20000

// sourceSeeds are the seeds the owned source is held to math/rand on: the
// ones its normalization treats apart (0, which math/rand replaces, the
// negatives it wraps, multiples of 2³¹−1, which fall to 0, and the int64
// extremes), the replacement seed itself, the seeds Load gives the
// default config's VMs, and a few hundred drawn from the whole int64
// range and from around ±2³¹.
func sourceSeeds() []int64 {
	const m = 1<<31 - 1
	seeds := []int64{
		0, 1, -1, 2, -2, 89482311, -89482311,
		m - 1, m, m + 1, -m, -(m - 1), -(m + 1),
		2 * m, 3 * m, -5 * m, 1 << 30 * m, -(1 << 30) * m, 4294967298 * m, -4294967298 * m,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	}
	for i := range int64(32) {
		seeds = append(seeds, DefaultDatacenterConfig().Seed+1000+i)
	}
	r := rand.New(rand.NewSource(7))
	for range 128 {
		seeds = append(seeds, int64(r.Uint64()), r.Int63n(1<<32)-1<<31)
	}
	return seeds
}

// matchMathRand checks that src, seeded to seed, gives math/rand's
// streams for seed over n values: Int63, and NormFloat64 and Float64
// through rand.New. src is re-seeded before each stream, so a used source
// must give a fresh one's values.
func matchMathRand(t *testing.T, src *source, seed int64, n int) {
	t.Helper()
	src.Seed(seed)
	want := rand.NewSource(seed)
	for k := range n {
		if got, w := src.Int63(), want.Int63(); got != w {
			t.Fatalf("seed %d: Int63 %d is %d, want %d", seed, k, got, w)
		}
	}
	r, wantR := rand.New(src), rand.New(rand.NewSource(seed))
	r.Seed(seed)
	for k := range n {
		if got, w := r.NormFloat64(), wantR.NormFloat64(); math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("seed %d: NormFloat64 %d is %v, want %v", seed, k, got, w)
		}
	}
	r.Seed(seed)
	wantR.Seed(seed)
	for k := range n {
		if got, w := r.Float64(), wantR.Float64(); math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("seed %d: Float64 %d is %v, want %v", seed, k, got, w)
		}
	}
}

// TestSourceMatchesMathRand: the owned source draws math/rand's streams
// bit for bit, seed after seed on one source re-seeded after use, as a
// Load worker uses it, and freshly made.
func TestSourceMatchesMathRand(t *testing.T) {
	used := new(source)
	for _, seed := range sourceSeeds() {
		matchMathRand(t, used, seed, sourceDraws)
	}
	fresh, want := new(source), rand.NewSource(89482311)
	fresh.Seed(89482311)
	for k := range sourceDraws {
		if got, w := fresh.Int63(), want.Int63(); got != w {
			t.Fatalf("fresh source: Int63 %d is %d, want %d", k, got, w)
		}
	}
}

// FuzzSource holds the owned source to math/rand for any seed over up to
// 4,096 values of each stream, first on a fresh source, then on the same
// source re-seeded.
func FuzzSource(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, 1<<31 - 1, -(1<<31 - 1), 1 << 31, math.MinInt64, math.MaxInt64} {
		f.Add(seed, uint16(600))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		src := new(source)
		matchMathRand(t, src, seed, int(n%4097))
		matchMathRand(t, src, seed, int(n%4097))
	})
}

// BenchmarkSeed times seeding the owned source against math/rand's.
func BenchmarkSeed(b *testing.B) {
	b.Run("owned", func(b *testing.B) {
		src := new(source)
		for i := range b.N {
			src.Seed(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		src := rand.NewSource(1)
		for i := range b.N {
			src.Seed(int64(i))
		}
	})
}
