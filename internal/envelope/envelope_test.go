package envelope

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/pkg/dcsim/model"
)

// FromBools packs a boolean-slice envelope, the pre-bitset representation
// the tests state cases in.
func FromBools(bs []bool) Envelope {
	e := New(len(bs))
	for i, b := range bs {
		if b {
			e.Set(i)
		}
	}
	return e
}

// Bit reports whether position i is marked.
func (e Envelope) Bit(i int) bool { return e.bits[i>>6]&(1<<(uint(i)&63)) != 0 }

// Bools unpacks the envelope into a boolean slice.
func (e Envelope) Bools() []bool {
	out := make([]bool, e.n)
	for i := range out {
		out[i] = e.Bit(i)
	}
	return out
}

func TestExtract(t *testing.T) {
	s := model.SeriesFromSamples(time.Second, []float64{1, 5, 2, 8, 3})
	env := Extract(s, 2.5)
	want := []bool{false, true, false, true, true}
	for i := range want {
		if env.Bit(i) != want[i] {
			t.Fatalf("env.Bit(%d) = %v, want %v", i, env.Bit(i), want[i])
		}
	}
}

func TestBoolsRoundTrip(t *testing.T) {
	f := func(bs []bool) bool {
		e := FromBools(bs)
		if e.Len() != len(bs) {
			return false
		}
		got := e.Bools()
		for i := range bs {
			if got[i] != bs[i] || e.Bit(i) != bs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOverlap(t *testing.T) {
	a := FromBools([]bool{true, true, false, false})
	b := FromBools([]bool{true, false, true, false})
	// both=1, either=3.
	if got := Overlap(a, b); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("overlap = %v, want 1/3", got)
	}
	if got := Overlap(a, a); got != 1 {
		t.Fatalf("self overlap = %v, want 1", got)
	}
	disjoint := FromBools([]bool{false, false, true, true})
	if got := Overlap(a, disjoint); got != 0 {
		t.Fatalf("disjoint overlap = %v, want 0", got)
	}
	empty := FromBools([]bool{false, false})
	if got := Overlap(empty, empty); got != 1 {
		t.Fatalf("all-false envelopes should overlap fully, got %v", got)
	}
}

// boolOverlap is the pre-bitset reference implementation Overlap is pinned
// against (and benchmarked against below).
func boolOverlap(a, b []bool) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	both, either := 0, 0
	for i := 0; i < n; i++ {
		if a[i] || b[i] {
			either++
			if a[i] && b[i] {
				both++
			}
		}
	}
	if either == 0 {
		return 1
	}
	return float64(both) / float64(either)
}

func TestOverlapMatchesBoolReference(t *testing.T) {
	// Property: the popcount form equals the per-position reference,
	// including mismatched lengths and word-boundary tails.
	f := func(a, b []bool) bool {
		return Overlap(FromBools(a), FromBools(b)) == boolOverlap(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Deterministic word-boundary cases quick may miss.
	for _, n := range []int{63, 64, 65, 127, 128, 129} {
		rng := rand.New(rand.NewSource(int64(n)))
		a, b := make([]bool, n), make([]bool, n-1)
		for i := range a {
			a[i] = rng.Intn(3) == 0
		}
		for i := range b {
			b[i] = rng.Intn(3) == 0
		}
		if got, want := Overlap(FromBools(a), FromBools(b)), boolOverlap(a, b); got != want {
			t.Fatalf("n=%d: overlap %v, want %v", n, got, want)
		}
	}
}

func TestOverlapBounds(t *testing.T) {
	f := func(a, b []bool) bool {
		o := Overlap(FromBools(a), FromBools(b))
		return o >= 0 && o <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapSymmetric(t *testing.T) {
	f := func(a, b []bool) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		ea, eb := FromBools(a[:n]), FromBools(b[:n])
		return Overlap(ea, eb) == Overlap(eb, ea)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func fromBoolSlices(bss [][]bool) []Envelope {
	envs := make([]Envelope, len(bss))
	for i, bs := range bss {
		envs[i] = FromBools(bs)
	}
	return envs
}

func TestClusterDisjointEnvelopes(t *testing.T) {
	// Three mutually disjoint envelopes must form three clusters.
	envs := fromBoolSlices([][]bool{
		{true, false, false},
		{false, true, false},
		{false, false, true},
	})
	assign, n := Cluster(envs, 0.05)
	if n != 3 {
		t.Fatalf("clusters = %d, want 3", n)
	}
	if assign[0] == assign[1] || assign[1] == assign[2] || assign[0] == assign[2] {
		t.Fatalf("assignments should be distinct: %v", assign)
	}
}

func TestClusterIdenticalEnvelopes(t *testing.T) {
	env := []bool{true, false, true, false}
	envs := fromBoolSlices([][]bool{env, env, env, env})
	assign, n := Cluster(envs, 0.05)
	if n != 1 {
		t.Fatalf("identical envelopes should form one cluster, got %d", n)
	}
	for _, a := range assign {
		if a != 0 {
			t.Fatalf("assign = %v", assign)
		}
	}
}

func TestClusterMergesViaUnion(t *testing.T) {
	// c overlaps the union of a and b even though it is disjoint from a.
	envs := fromBoolSlices([][]bool{
		{true, true, false, false},
		{true, false, true, false},
		{false, false, true, false},
	})
	_, n := Cluster(envs, 0.2)
	if n != 1 {
		t.Fatalf("clusters = %d, want 1 (union growth)", n)
	}
}

func TestClusterEmptyInput(t *testing.T) {
	assign, n := Cluster(nil, 0.1)
	if n != 0 || len(assign) != 0 {
		t.Fatalf("empty input: %v, %d", assign, n)
	}
}

func TestClusterAssignmentsInRange(t *testing.T) {
	f := func(bss [][]bool, thRaw uint8) bool {
		th := float64(thRaw) / 255
		envs := fromBoolSlices(bss)
		assign, n := Cluster(envs, th)
		if len(assign) != len(envs) {
			return false
		}
		for _, a := range assign {
			if a < 0 || a >= n {
				return false
			}
		}
		return len(envs) == 0 || n >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// clusterEnvs builds the PCP-shaped clustering input: nVMs envelopes over
// a 720-sample day, in nGroups phase groups so clustering has structure.
func clusterEnvs(nVMs, samples, nGroups int) ([]Envelope, [][]bool) {
	rng := rand.New(rand.NewSource(3))
	bss := make([][]bool, nVMs)
	for v := range bss {
		bs := make([]bool, samples)
		phase := v % nGroups
		for i := range bs {
			bs[i] = (i/30)%nGroups == phase && rng.Intn(10) > 1
		}
		bss[v] = bs
	}
	return fromBoolSlices(bss), bss
}

// BenchmarkClusterBitset measures PCP clustering over packed envelopes —
// the form place.PCP runs — against BenchmarkClusterBools, the
// boolean-slice implementation it replaced; the pair records the
// popcount win.
func BenchmarkClusterBitset(b *testing.B) {
	envs, _ := clusterEnvs(200, 720, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, n := Cluster(envs, 0.03); n != 4 {
			b.Fatalf("clusters = %d", n)
		}
	}
}

func BenchmarkClusterBools(b *testing.B) {
	_, bss := clusterEnvs(200, 720, 4)
	boolMerge := func(dst, src []bool) {
		n := len(dst)
		if len(src) < n {
			n = len(src)
		}
		for i := 0; i < n; i++ {
			dst[i] = dst[i] || src[i]
		}
	}
	boolCluster := func(envs [][]bool, maxOverlap float64) int {
		var unions [][]bool
		for _, env := range envs {
			placed := false
			for _, u := range unions {
				if boolOverlap(env, u) > maxOverlap {
					boolMerge(u, env)
					placed = true
					break
				}
			}
			if !placed {
				unions = append(unions, append([]bool(nil), env...))
			}
		}
		return len(unions)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := boolCluster(bss, 0.03); n != 4 {
			b.Fatalf("clusters = %d", n)
		}
	}
}
