package core

import "repro/pkg/dcsim/model"

// FreqRaw computes the continuous Eqn-4 frequency for a server hosting the
// given members:
//
//	f = (1 / Cost_server) · (Σ û / Ncore) · fmax
//
// The second factor is the frequency that would cover the worst case of all
// member peaks coinciding; the 1/Cost_server factor is the discount the
// empirical Fig.-3 lower bound licenses, because anti-correlated members'
// actual aggregate peak is smaller than the sum of peaks by that ratio.
func FreqRaw(members []int, refs []float64, cost model.PairCostFunc, spec model.ServerSpec) float64 {
	if len(members) == 0 {
		return spec.FMin()
	}
	sum := 0.0
	for _, v := range members {
		sum += refs[v]
	}
	cs := ServerCost(members, refs, cost)
	return (1 / cs) * (sum / float64(spec.Cores)) * spec.FMax()
}

// FreqForServer snaps the Eqn-4 frequency up to the nearest available level
// of the spec (never below fmin, never above fmax).
func FreqForServer(members []int, refs []float64, cost model.PairCostFunc, spec model.ServerSpec) float64 {
	return spec.LevelFor(FreqRaw(members, refs, cost, spec))
}

// FreqPlan returns the per-server frequency levels for a whole placement,
// the static-scaling mode of the paper's Table II(a): levels are fixed at
// placement time from the predicted per-VM references.
func FreqPlan(p *model.Placement, refs []float64, cost model.PairCostFunc, spec model.ServerSpec) []float64 {
	out := make([]float64, p.NumServers)
	for s, members := range Members(p) {
		out[s] = FreqForServer(members, refs, cost, spec)
	}
	return out
}

// WorstCaseFreqPlan is the correlation-oblivious counterpart used by the
// BFD and PCP baselines in static mode: each server runs at the lowest
// level whose capacity covers the sum of the predicted member references
// (no correlation discount).
func WorstCaseFreqPlan(p *model.Placement, refs []float64, spec model.ServerSpec) []float64 {
	// One pass adds each server's members in ascending order from 0.0.
	out := make([]float64, p.NumServers)
	for v, s := range p.Assign {
		out[s] += refs[v]
	}
	for s, sum := range out {
		out[s] = spec.MinLevelForDemand(sum)
	}
	return out
}

// Members returns, per server of p, the VMs placed on it in ascending
// order: what VMsOn returns for every server, nil for an empty one, grouped
// in one pass over the assignment. Each server's slice has no spare
// capacity, so appending to one never writes into the next.
func Members(p *model.Placement) [][]int {
	out := make([][]int, p.NumServers)
	counts := make([]int, p.NumServers)
	for _, s := range p.Assign {
		counts[s]++
	}
	flat := make([]int, len(p.Assign))
	off := 0
	for s, c := range counts {
		if c > 0 {
			out[s] = flat[off : off : off+c]
		}
		off += c
	}
	for v, s := range p.Assign {
		out[s] = append(out[s], v)
	}
	return out
}
