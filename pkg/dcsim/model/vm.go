package model

import "fmt"

// VM is one virtual machine as consolidation sees it: a name and its
// full-horizon CPU demand trace.
type VM struct {
	ID     string
	Demand *Series // CPU demand in core-equivalents
}

// NewVM returns a VM over the given demand trace.
func NewVM(id string, demand *Series) *VM {
	if demand == nil {
		panic("model: nil demand trace")
	}
	return &VM{ID: id, Demand: demand}
}

// String implements fmt.Stringer.
func (v *VM) String() string {
	return fmt.Sprintf("%s(%d samples @ %v)", v.ID, v.Demand.Len(), v.Demand.Interval())
}

// RefOver returns the reference utilization û of the demand over the sample
// window [from, to): the peak when pctl >= 1, otherwise the percentile.
func (v *VM) RefOver(from, to int, pctl float64) float64 {
	return v.Demand.Slice(from, to).Percentile(pctl)
}

// VMsFromSeries builds a VM slice from parallel name and series slices.
func VMsFromSeries(names []string, demands []*Series) []*VM {
	if len(names) != len(demands) {
		panic(fmt.Sprintf("model: %d names for %d series", len(names), len(demands)))
	}
	out := make([]*VM, len(names))
	for i := range names {
		out[i] = NewVM(names[i], demands[i])
	}
	return out
}

// Dataset is a generated (or recorded) set of named VM demand traces — the
// unit a workload backend produces, held all at once.
type Dataset struct {
	Names []string  // one per VM
	Fine  []*Series // fine (5-s) demand per VM, in cores
}
