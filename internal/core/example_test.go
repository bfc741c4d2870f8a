package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/server"
	"repro/pkg/dcsim/model"
)

// ExampleCostMatrix shows the streaming Eqn-1 cost on two anti-phased VMs.
func ExampleCostMatrix() {
	m := core.NewCostMatrix(2, 1) // peak reference
	for k := 0; k < 100; k++ {
		if k%2 == 0 {
			m.Add([]float64{4, 1})
		} else {
			m.Add([]float64{1, 4})
		}
	}
	// Peaks are 4 and 4; the aggregate never exceeds 5.
	fmt.Printf("cost = %.1f\n", m.Cost(0, 1))
	// Output:
	// cost = 1.6
}

// ExampleAllocator places four VMs (two anti-phased pairs) onto Xeon
// servers and picks Eqn-4 frequencies.
func ExampleAllocator() {
	m := core.NewCostMatrix(4, 1)
	for k := 0; k < 100; k++ {
		if (k/10)%2 == 0 {
			m.Add([]float64{3.5, 3.5, 0.5, 0.5})
		} else {
			m.Add([]float64{0.5, 0.5, 3.5, 3.5})
		}
	}
	reqs := []model.Request{
		{ID: "a1", Ref: 3.5}, {ID: "a2", Ref: 3.5},
		{ID: "b1", Ref: 3.5}, {ID: "b2", Ref: 3.5},
	}
	alloc := &core.Allocator{Config: core.DefaultConfig(), Cost: m.Cost}
	spec := server.XeonE5410()
	p, err := alloc.Place(reqs, spec, 4)
	if err != nil {
		panic(err)
	}
	refs := []float64{3.5, 3.5, 3.5, 3.5}
	for s := 0; s < p.NumServers; s++ {
		members := p.VMsOn(s)
		f := core.FreqForServer(members, refs, m.Cost, spec)
		names := ""
		for _, v := range members {
			names += " " + reqs[v].ID
		}
		fmt.Printf("server%d @%.1fGHz:%s\n", s, f, names)
	}
	// Output:
	// server0 @2.0GHz: a1 b1
	// server1 @2.0GHz: a2 b2
}

// ExampleServerCost evaluates Eqn 2 for a mixed server.
func ExampleServerCost() {
	cost := func(i, j int) float64 {
		if i == j {
			return 1
		}
		return 1.5 // every pair anti-correlated
	}
	refs := []float64{4, 2, 2}
	fmt.Printf("%.2f\n", core.ServerCost([]int{0, 1, 2}, refs, cost))
	// Output:
	// 1.50
}
