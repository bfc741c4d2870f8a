// Package core implements the paper's contribution: the streaming
// correlation cost of Eqn (1), the server-level cost of Eqn (2), the
// correlation-aware First-Fit-Decreasing allocator of Fig. 2, and the
// aggressive-yet-safe voltage/frequency selection of Eqns (3)-(4).
package core

import (
	"math"
	"unsafe"

	"repro/internal/stats"
	"repro/pkg/dcsim/model"
)

// CostMatrix maintains the pairwise correlation costs of Eqn (1) for a set
// of VMs, fed simultaneous utilization samples, one value per VM each:
//
//	Cost(i,j) = (û(VMi) + û(VMj)) / û(VMi + VMj)
//
// where û is the reference utilization (peak, or the Nth percentile via a
// P² estimator) over the monitoring window. Each update is O(1) per pair
// with O(1) memory, which is the paper's argument for preferring this
// metric over windowed Pearson correlation (Section IV-A): the work is
// spread evenly over the monitoring interval and no sample history is
// stored. A CostMatrix is not synchronized.
//
// Cost is at least ~1 (peaks of the sum cannot exceed the sum of peaks) and
// grows as the VMs' peaks interleave; higher cost = lower correlation =
// better co-location candidates.
//
// Add takes a chunk of one or more whole samples at once. With a peak
// reference on an amd64 CPU with AVX2 it updates the pair peaks in tiles
// of four triangle rows by eight columns, each tile's 32 peaks held in
// registers across the whole chunk and stored once (tileAVX2 in
// peak_amd64.s); the last N mod 4 rows, and every row everywhere else,
// go one sample at a time through the Go loop peakRow. A peak only rises
// from +0, so the order in which a chunk's sums reach it changes no bit,
// and both paths leave every peak with the same bits.
type CostMatrix struct {
	n       int
	samples int // samples fed into the current window
	// With a peak reference (pctl >= 1) the window's û values are running
	// maxima kept flat: the n per-VM peaks, then the n(n−1)/2 pair peaks of
	// the aggregated demand in pairIndex order. With a percentile reference
	// p2 holds one P² estimator per entry of the same layout instead.
	peak []float64
	p2   []*stats.P2Quantile
}

// CostMatrix implements the streaming contract model.CostSource.
var _ model.CostSource = (*CostMatrix)(nil)

// NewCostMatrix returns a matrix for n VMs using the given reference
// percentile (>= 1 tracks exact peaks). It panics when pctl <= 0.
func NewCostMatrix(n int, pctl float64) *CostMatrix {
	if n < 0 {
		panic("core: negative VM count")
	}
	if pctl <= 0 {
		panic("core: reference percentile must be positive")
	}
	m := &CostMatrix{n: n}
	entries := n + n*(n-1)/2
	if pctl < 1 {
		m.p2 = make([]*stats.P2Quantile, entries)
		for k := range m.p2 {
			m.p2[k] = stats.NewP2Quantile(pctl)
		}
		return m
	}
	m.peak = make([]float64, entries)
	return m
}

// CostMatrixBytes is the memory NewCostMatrix(n, pctl) allocates for its
// n + n(n−1)/2 entries: a float64 peak each, or with a percentile
// reference a pointer to a P² estimator and the estimator. It is a float64
// so that no n overflows it.
func CostMatrixBytes(n int, pctl float64) float64 {
	per := float64(unsafe.Sizeof(float64(0)))
	if pctl < 1 {
		per = float64(unsafe.Sizeof(&stats.P2Quantile{}) + unsafe.Sizeof(stats.P2Quantile{}))
	}
	entries := float64(n) + float64(n)*float64(n-1)/2
	return entries * per
}

// N returns the number of VMs tracked.
func (m *CostMatrix) N() int { return m.n }

func (m *CostMatrix) pairIndex(i, j int) int {
	if i > j {
		i, j = j, i
	}
	// Row-major upper triangle without the diagonal.
	return i*m.n - i*(i+1)/2 + (j - i - 1)
}

// Add feeds one or more simultaneous utilization samples, sample-major:
// samples[t*N()+i] is VM i's value in the t-th sample, and Samples rises
// by the count. len(samples) must be a positive multiple of N(); a matrix
// of no VMs takes an empty slice and counts it as one sample. A P²
// reference takes the samples one at a time, in order, since its
// estimators depend on order.
func (m *CostMatrix) Add(samples []float64) {
	n := m.n
	t := 1
	if n > 0 {
		t = len(samples) / n
	}
	if t == 0 || len(samples) != t*n {
		panic("core: sample length is not a positive multiple of the VM count")
	}
	m.samples += t
	if m.p2 != nil {
		for s := range t {
			m.addP2(samples[s*n : (s+1)*n])
		}
		return
	}
	vm := m.peak[:n]
	for s := range t {
		for i, v := range samples[s*n : (s+1)*n] {
			if v > vm[i] {
				vm[i] = v
			}
		}
	}
	tri := m.peak[n:]
	i := 0
	if useTile {
		// Strips of four triangle rows; rows i..i+3 hold 4(n−i)−10 pairs.
		for ; i+4 <= n; i += 4 {
			tileAVX2(&tri[0], &samples[i], n-i-4, n, t)
			tri = tri[4*(n-i)-10:]
		}
	}
	// The rows no strip took pair only among themselves.
	for s := range t {
		peakRows(tri, samples[s*n+i:(s+1)*n])
	}
}

// addP2 feeds one sample to the P² estimators, in pairIndex order.
func (m *CostMatrix) addP2(sample []float64) {
	for i, v := range sample {
		m.p2[i].Add(v)
	}
	k := m.n
	for i, v := range sample {
		for _, w := range sample[i+1:] {
			m.p2[k].Add(v + w)
			k++
		}
	}
}

// peakRows feeds one sample to the pair peaks among its VMs: tri holds
// them row by row in pairIndex order, and each row goes through peakRow.
func peakRows(tri, sample []float64) {
	for i, v := range sample {
		rest := sample[i+1:]
		peakRow(tri, rest, v)
		tri = tri[len(rest):]
	}
}

// peakRow raises row[j] to v + rest[j], for each j of rest, where that
// sum is larger, keeping row[j] on ties (+0 against −0 included) and NaN.
// It is the per-sample pair-peak update wherever tileAVX2 does not run.
func peakRow(row, rest []float64, v float64) {
	row = row[:len(rest)]
	for j, w := range rest {
		if s := v + w; s > row[j] {
			row[j] = s
		}
	}
}

// Samples returns how many samples have been fed into the window.
func (m *CostMatrix) Samples() int { return m.samples }

// ref returns the current û of entry k of the flat layout.
func (m *CostMatrix) ref(k int) float64 {
	if m.p2 != nil {
		return m.p2[k].Value()
	}
	return m.peak[k]
}

// Cost returns the Eqn-1 cost between VMs i and j. Before any samples, or
// when the pair never exercises the CPU, the cost is 1 (assume perfect
// correlation — the conservative choice).
func (m *CostMatrix) Cost(i, j int) float64 {
	if i == j {
		return 1
	}
	den := m.ref(m.n + m.pairIndex(i, j))
	if den <= 1e-12 {
		return 1
	}
	return (m.ref(i) + m.ref(j)) / den
}

// Reset starts a new monitoring window, clearing every peak or estimator.
func (m *CostMatrix) Reset() {
	m.samples = 0
	clear(m.peak)
	for _, q := range m.p2 {
		q.Reset()
	}
}

// CostOf computes the Eqn-1 cost of two demand slices directly (batch
// form), using the given reference percentile. It is the reference
// implementation the streaming matrix is validated against, and Fig. 3's
// cost of each group's windows.
func CostOf(a, b []float64, pctl float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 1
	}
	ra := refOf(a[:n], pctl)
	rb := refOf(b[:n], pctl)
	sum := make([]float64, n)
	for i := 0; i < n; i++ {
		sum[i] = a[i] + b[i]
	}
	rs := refOf(sum, pctl)
	if rs <= 1e-12 {
		return 1
	}
	return (ra + rb) / rs
}

func refOf(xs []float64, pctl float64) float64 {
	if pctl < 1 {
		// The same P² estimator the matrix runs per entry, not an exact
		// percentile: that is why CostOf agrees with CostMatrix for pctl < 1.
		q := stats.NewP2Quantile(pctl)
		for _, v := range xs {
			q.Add(v)
		}
		return q.Value()
	}
	max := 0.0
	for i, v := range xs {
		if i == 0 || v > max {
			max = v
		}
	}
	return max
}

// SyntheticPairCost is a deterministic, symmetric, O(1) stand-in pair
// cost with values in [1, 1.5) — for scale tests and benchmarks, where a
// streaming matrix's per-pair state would dominate memory at 10k+ VMs.
func SyntheticPairCost(i, j int) float64 {
	if i == j {
		return 1
	}
	if i > j {
		i, j = j, i
	}
	h := uint64(i)*0x9E3779B97F4A7C15 ^ uint64(j)*0xC2B2AE3D27D4EB4F
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return 1 + float64(h%1000)/2000
}

// ServerCost computes the weighted average correlation cost of a server,
// Eqn (2): each member VM contributes the mean of its pairwise costs
// against the other members, weighted by its share of the server's total
// reference utilization. A server with fewer than two members has cost 1
// (a lone VM's peak is its own peak — no co-location discount).
func ServerCost(members []int, refs []float64, cost model.PairCostFunc) float64 {
	if len(members) < 2 {
		return 1
	}
	total := 0.0
	for _, j := range members {
		total += refs[j]
	}
	if total <= 1e-12 {
		return 1
	}
	out := 0.0
	for _, j := range members {
		w := refs[j] / total
		mean := 0.0
		for _, k := range members {
			if k == j {
				continue
			}
			mean += cost(j, k)
		}
		mean /= float64(len(members) - 1)
		out += w * mean
	}
	if math.IsNaN(out) || out < 1e-12 {
		return 1
	}
	return out
}
