// Package place holds the correlation-oblivious placement baselines the
// paper compares against: first-fit decreasing, best-fit decreasing, the
// PCP scheme of Verma et al., and the joint-VM sizing of Meng et al. The
// request/placement substrate and the Policy interface they implement are
// the public contracts in pkg/dcsim/model; the paper's own
// correlation-aware policy lives in internal/core and implements the same
// interface.
package place

import (
	"sort"

	"repro/pkg/dcsim/model"
)

// byRefDesc returns request indices sorted by decreasing Ref (ties by
// index for determinism).
func byRefDesc(reqs []model.Request) []int {
	idx := make([]int, len(reqs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return reqs[idx[a]].Ref > reqs[idx[b]].Ref })
	return idx
}

// forceLeastLoaded places vm on the server with the largest remaining
// capacity, overcommitting it.
func forceLeastLoaded(rem []float64, ref float64) int {
	best := 0
	for i, r := range rem {
		if r > rem[best] {
			best = i
		}
	}
	rem[best] -= ref
	return best
}

// FFD is the first-fit-decreasing heuristic: VMs in decreasing û order,
// each into the first open server with room, opening servers as needed.
type FFD struct{}

// Name implements model.Policy.
func (FFD) Name() string { return "FFD" }

// Place implements model.Policy.
func (FFD) Place(reqs []model.Request, spec model.ServerSpec, maxServers int) (*model.Placement, error) {
	if maxServers < 1 {
		return nil, model.ErrNoServers
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cap := spec.Capacity()
	assign := make([]int, len(reqs))
	rem := []float64{}
	for _, i := range byRefDesc(reqs) {
		placed := false
		for s := range rem {
			if rem[s] >= reqs[i].Ref {
				rem[s] -= reqs[i].Ref
				assign[i] = s
				placed = true
				break
			}
		}
		if !placed {
			if len(rem) < maxServers {
				rem = append(rem, cap-reqs[i].Ref)
				assign[i] = len(rem) - 1
			} else {
				assign[i] = forceLeastLoaded(rem, reqs[i].Ref)
			}
		}
	}
	if len(rem) == 0 {
		rem = append(rem, cap)
	}
	return &model.Placement{NumServers: len(rem), Assign: assign}, nil
}

// BFD is the best-fit-decreasing heuristic the paper uses as its primary
// baseline: VMs in decreasing û order, each into the open server with the
// least remaining capacity that still fits.
type BFD struct{}

// Name implements model.Policy.
func (BFD) Name() string { return "BFD" }

// Place implements model.Policy.
func (BFD) Place(reqs []model.Request, spec model.ServerSpec, maxServers int) (*model.Placement, error) {
	if maxServers < 1 {
		return nil, model.ErrNoServers
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cap := spec.Capacity()
	assign := make([]int, len(reqs))
	rem := []float64{}
	for _, i := range byRefDesc(reqs) {
		best := -1
		for s := range rem {
			if rem[s] >= reqs[i].Ref && (best == -1 || rem[s] < rem[best]) {
				best = s
			}
		}
		switch {
		case best >= 0:
			rem[best] -= reqs[i].Ref
			assign[i] = best
		case len(rem) < maxServers:
			rem = append(rem, cap-reqs[i].Ref)
			assign[i] = len(rem) - 1
		default:
			assign[i] = forceLeastLoaded(rem, reqs[i].Ref)
		}
	}
	if len(rem) == 0 {
		rem = append(rem, cap)
	}
	return &model.Placement{NumServers: len(rem), Assign: assign}, nil
}
