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
//
// Pctl sizes each super-VM at that percentile of its members' summed
// window instead of at its peak; the "jointvm" policy of pkg/dcsim sets it
// to the scenario's pctl. BFD places the super-VMs, one request each.
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
			jr := joint.Percentile(j.pctl())
			g := reqs[i].Ref + reqs[k].Ref - jr
			if g > 0 {
				candidates = append(candidates, pair{i: i, j: k, gain: g, ref: jr})
			}
		}
	}
	sort.SliceStable(candidates, func(a, b int) bool { return candidates[a].gain > candidates[b].gain })

	// Each super-VM is one request to BFD, in the order they form: the
	// matched pairs by gain, then the unpaired VMs by index.
	paired := make([]bool, len(reqs))
	var members [][]int
	var supers []model.Request
	for _, c := range candidates {
		if paired[c.i] || paired[c.j] {
			continue
		}
		paired[c.i], paired[c.j] = true, true
		members = append(members, []int{c.i, c.j})
		supers = append(supers, model.Request{Ref: c.ref})
	}
	for i := range reqs {
		if !paired[i] {
			members = append(members, []int{i})
			supers = append(supers, model.Request{Ref: reqs[i].Ref})
		}
	}
	p, err := BFD{}.Place(supers, spec, maxServers)
	if err != nil {
		return nil, err
	}
	assign := make([]int, len(reqs))
	for s, vms := range members {
		for _, v := range vms {
			assign[v] = p.Assign[s]
		}
	}
	return &model.Placement{NumServers: p.NumServers, Assign: assign}, nil
}
