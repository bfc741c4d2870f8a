package place

import (
	"slices"

	"repro/internal/envelope"

	"repro/pkg/dcsim/model"
)

// maxOverlap is the Jaccard overlap above which two envelopes belong to
// the same cluster (Verma et al. require envelopes of different clusters
// to be essentially disjoint, so even a small overlap merges).
const maxOverlap = 0.03

// PCP is the Peak Clustering-based Placement of Verma et al. (USENIX ATC
// 2009) as described in the paper's related work and Section V-B:
//
//  1. Each VM's envelope (utilization above its own off-peak percentile)
//     is extracted over the monitoring window, against the off-peak the
//     simulator measured over that window (Request.WindowOffPeak), at the
//     percentile it provisions with (the scenario's off_pctl, 0.9 by
//     default).
//  2. VMs are clustered so that envelopes in different clusters do not
//     overlap (Jaccard overlap below maxOverlap).
//  3. VMs are provisioned by their off-peak demand and servers co-locate
//     VMs from different clusters, reserving a shared peak buffer sized to
//     the worst per-cluster sum of peak excesses among the co-located VMs
//     (same-cluster VMs peak together, so their excesses add; clusters do
//     not overlap, so only the worst cluster needs the buffer).
//
// When clustering collapses to a single cluster — which is what happens
// with fast-changing, strongly synchronized scale-out workloads — PCP
// degenerates to plain BFD on peak demand, reproducing the observation in
// the paper's Setup 2 (22 of 24 periods formed one cluster).
type PCP struct{}

// Name implements model.Policy.
func (PCP) Name() string { return "PCP" }

// Place implements model.Policy.
func (PCP) Place(reqs []model.Request, spec model.ServerSpec, maxServers int) (*model.Placement, error) {
	if maxServers < 1 {
		return nil, model.ErrNoServers
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}

	envs := make([]envelope.Envelope, len(reqs))
	for i, r := range reqs {
		if r.Window != nil && r.Window.Len() > 0 {
			envs[i] = envelope.Extract(r.Window, r.WindowOffPeak)
		}
		// Otherwise the zero Envelope: indistinguishable; lands in the
		// first cluster.
	}
	clusterOf, clusters := envelope.Cluster(envs, maxOverlap)

	// Degenerate case: one cluster means "every VM peaks with every other
	// VM"; the scheme has no signal and behaves exactly like BFD.
	if clusters <= 1 {
		return BFD{}.Place(reqs, spec, maxServers)
	}

	cap := spec.Capacity()
	assign := make([]int, len(reqs))
	type srv struct {
		offPeakSum float64 // sum of co-located off-peak demands
		// clusters lists the clusters placed here in first-add order,
		// and excess[j] accumulates (peak - offPeak) over clusters[j]'s
		// VMs: VMs of one cluster peak together, so their excesses add;
		// clusters do not overlap, so the shared buffer only needs to
		// cover the worst cluster. A server holds a few clusters, so a
		// scan beats a map.
		clusters []int
		excess   []float64
	}
	var open []*srv

	// buffer is the shared buffer s needs with r of cluster c added: the
	// largest cluster excess, which no scan order changes.
	buffer := func(s *srv, r model.Request, c int) float64 {
		buf, found := 0.0, false
		for j, e := range s.excess {
			if s.clusters[j] == c {
				e += r.Ref - r.OffPeak
				found = true
			}
			if e > buf {
				buf = e
			}
		}
		if e := r.Ref - r.OffPeak; !found && e > buf {
			buf = e
		}
		return buf
	}
	fits := func(s *srv, r model.Request, c int) bool {
		return s.offPeakSum+r.OffPeak+buffer(s, r, c) <= cap
	}
	add := func(s *srv, r model.Request, c int) {
		s.offPeakSum += r.OffPeak
		if j := slices.Index(s.clusters, c); j >= 0 {
			s.excess[j] += r.Ref - r.OffPeak
		} else {
			s.clusters = append(s.clusters, c)
			s.excess = append(s.excess, r.Ref-r.OffPeak)
		}
	}

	for _, i := range byRefDesc(reqs) {
		r := reqs[i]
		c := clusterOf[i]
		// Prefer the best-fitting server that has no VM from the same
		// cluster; fall back to the best-fitting server overall; then
		// to opening a server; then to overcommitting.
		best, bestAny := -1, -1
		for s, st := range open {
			if !fits(st, r, c) {
				continue
			}
			if bestAny == -1 || st.offPeakSum > open[bestAny].offPeakSum {
				bestAny = s
			}
			if !slices.Contains(st.clusters, c) && (best == -1 || st.offPeakSum > open[best].offPeakSum) {
				best = s
			}
		}
		if best == -1 {
			best = bestAny
		}
		switch {
		case best >= 0:
			add(open[best], r, c)
			assign[i] = best
		case len(open) < maxServers:
			st := &srv{}
			add(st, r, c)
			open = append(open, st)
			assign[i] = len(open) - 1
		default:
			// Overcommit the least-loaded server.
			least := 0
			for s := range open {
				if open[s].offPeakSum < open[least].offPeakSum {
					least = s
				}
			}
			add(open[least], r, c)
			assign[i] = least
		}
	}
	if len(open) == 0 {
		open = append(open, &srv{})
	}
	return &model.Placement{NumServers: len(open), Assign: assign}, nil
}
