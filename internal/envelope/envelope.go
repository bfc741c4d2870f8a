// Package envelope implements the envelope-based workload classification of
// Verma et al. (USENIX ATC 2009), which the PCP baseline in the paper uses:
// a VM's envelope is the binary sequence that is 1 wherever CPU utilization
// exceeds the VM's off-peak (e.g. 90th percentile) level, and VMs are
// clustered so that envelopes within a cluster overlap while envelopes
// across clusters do not.
//
// Envelopes are packed 64 positions per word, so the Jaccard overlap at
// the heart of clustering is a handful of AND/OR + popcount operations per
// 64 samples instead of a branch per sample — the clustering benches in
// this package record the win over the boolean-slice form.
package envelope

import (
	"math/bits"

	"repro/pkg/dcsim/model"
)

// Envelope is a fixed-length bitset: position i is set where the demand
// sample exceeded the threshold. The zero Envelope has length 0 and — per
// the all-false convention below — overlaps everything fully, so VMs
// without a window land in the first cluster.
type Envelope struct {
	bits []uint64
	n    int
}

// New returns an all-false envelope of n positions.
func New(n int) Envelope {
	return Envelope{bits: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of positions.
func (e Envelope) Len() int { return e.n }

// Set marks position i.
func (e Envelope) Set(i int) { e.bits[i>>6] |= 1 << (uint(i) & 63) }

// Clone returns an independent copy.
func (e Envelope) Clone() Envelope {
	return Envelope{bits: append([]uint64(nil), e.bits...), n: e.n}
}

// Extract returns the binary envelope of a series against a threshold:
// set where the sample exceeds the threshold.
func Extract(s *model.Series, threshold float64) Envelope {
	env := New(s.Len())
	for i := 0; i < s.Len(); i++ {
		if s.At(i) > threshold {
			env.Set(i)
		}
	}
	return env
}

// Overlap returns the Jaccard overlap of two envelopes over their common
// prefix: the fraction of positions marked in either envelope that are
// marked in both. Two all-false envelopes overlap fully (1) by convention —
// VMs that never exceed their off-peak are indistinguishable to PCP.
func Overlap(a, b Envelope) float64 {
	n := a.n
	if b.n < n {
		n = b.n
	}
	words := n >> 6
	both, either := 0, 0
	for w := 0; w < words; w++ {
		both += bits.OnesCount64(a.bits[w] & b.bits[w])
		either += bits.OnesCount64(a.bits[w] | b.bits[w])
	}
	if tail := uint(n & 63); tail != 0 {
		mask := uint64(1)<<tail - 1
		both += bits.OnesCount64(a.bits[words] & b.bits[words] & mask)
		either += bits.OnesCount64((a.bits[words] | b.bits[words]) & mask)
	}
	if either == 0 {
		return 1
	}
	return float64(both) / float64(either)
}

// Cluster groups envelopes greedily: each envelope joins the first existing
// cluster whose union envelope it overlaps by more than maxOverlap,
// otherwise it founds a new cluster. It returns the cluster index per input
// and the number of clusters.
//
// With the fast-changing, strongly synchronized envelopes of scale-out
// workloads every pair overlaps, the result collapses to one cluster, and —
// as the paper observes in Section V-B — PCP degenerates to plain BFD.
func Cluster(envs []Envelope, maxOverlap float64) (assign []int, clusters int) {
	assign = make([]int, len(envs))
	var unions []Envelope
	for i, env := range envs {
		placed := false
		for c, u := range unions {
			if Overlap(env, u) > maxOverlap {
				assign[i] = c
				merge(u, env)
				placed = true
				break
			}
		}
		if !placed {
			assign[i] = len(unions)
			unions = append(unions, env.Clone())
		}
	}
	return assign, len(unions)
}

// merge ORs src into dst in place over the common prefix; positions past
// dst's length stay clear so dst's length is unchanged.
func merge(dst, src Envelope) {
	n := dst.n
	if src.n < n {
		n = src.n
	}
	words := n >> 6
	for w := 0; w < words; w++ {
		dst.bits[w] |= src.bits[w]
	}
	if tail := uint(n & 63); tail != 0 {
		dst.bits[words] |= src.bits[words] & (uint64(1)<<tail - 1)
	}
}
