package place

import (
	"sort"

	"repro/pkg/dcsim/model"
)

// JointVM is the joint-VM sizing baseline of Meng et al. (ICAC 2010),
// discussed in the paper's related work: pair up anti-correlated VMs into
// "super-VMs", provision each super-VM for the *measured aggregate* peak of
// its members (which is below the sum of their individual peaks when they
// do not peak together), and place the super-VMs with best-fit decreasing.
//
// The paper's criticism — reproduced by this implementation — is that once
// super-VMs are formed the scheme is blind to any further correlation
// structure: pairs are placed like opaque boxes, and time-varying
// correlations inside or across super-VMs are never revisited.
type JointVM struct {
	// Pctl is the reference percentile for the joint sizing (>= 1 or 0
	// means peak).
	Pctl float64
}

// Name implements model.Policy.
func (JointVM) Name() string { return "JointVM" }

func (j JointVM) pctl() float64 {
	if j.Pctl <= 0 || j.Pctl > 1 {
		return 1
	}
	return j.Pctl
}

// Place implements model.Policy.
func (j JointVM) Place(reqs []model.Request, spec model.ServerSpec, maxServers int) (*model.Placement, error) {
	if maxServers < 1 {
		return nil, model.ErrNoServers
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}

	// Pair selection: greedily match the pair with the largest sizing
	// gain û_i + û_j − û(i+j). Without windows the gain is zero and the
	// scheme degenerates to BFD on individual references.
	type pair struct {
		i, j int
		gain float64
		ref  float64 // joint reference of the super-VM
	}
	var candidates []pair
	for i := range reqs {
		for k := i + 1; k < len(reqs); k++ {
			if reqs[i].Window == nil || reqs[k].Window == nil {
				continue
			}
			joint, err := model.AggregateSeries(reqs[i].Window, reqs[k].Window)
			if err != nil {
				continue
			}
			jr := joint.Ref(j.pctl())
			g := reqs[i].Ref + reqs[k].Ref - jr
			if g > 0 {
				candidates = append(candidates, pair{i: i, j: k, gain: g, ref: jr})
			}
		}
	}
	sort.SliceStable(candidates, func(a, b int) bool { return candidates[a].gain > candidates[b].gain })

	paired := make([]bool, len(reqs))
	type superVM struct {
		members []int
		ref     float64
	}
	var supers []superVM
	for _, c := range candidates {
		if paired[c.i] || paired[c.j] {
			continue
		}
		paired[c.i], paired[c.j] = true, true
		supers = append(supers, superVM{members: []int{c.i, c.j}, ref: c.ref})
	}
	for i := range reqs {
		if !paired[i] {
			supers = append(supers, superVM{members: []int{i}, ref: reqs[i].Ref})
		}
	}

	// Best-fit decreasing over super-VMs.
	order := make([]int, len(supers))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return supers[order[a]].ref > supers[order[b]].ref })

	cap := spec.Capacity()
	assign := make([]int, len(reqs))
	var rem []float64
	for _, si := range order {
		s := supers[si]
		best := -1
		for srv := range rem {
			if rem[srv] >= s.ref && (best == -1 || rem[srv] < rem[best]) {
				best = srv
			}
		}
		switch {
		case best >= 0:
			rem[best] -= s.ref
		case len(rem) < maxServers:
			rem = append(rem, cap-s.ref)
			best = len(rem) - 1
		default:
			best = forceLeastLoaded(rem, s.ref)
		}
		for _, v := range s.members {
			assign[v] = best
		}
	}
	if len(rem) == 0 {
		rem = append(rem, cap)
	}
	return &model.Placement{NumServers: len(rem), Assign: assign}, nil
}
