package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/server"
	"repro/pkg/dcsim/model"
)

func flatCost(c float64) model.PairCostFunc {
	return func(i, j int) float64 {
		if i == j {
			return 1
		}
		return c
	}
}

func TestFreqRawEmptyServer(t *testing.T) {
	s := server.XeonE5410()
	if got := FreqRaw(nil, nil, flatCost(1), s); got != s.FMin() {
		t.Fatalf("empty server freq = %v, want fmin", got)
	}
}

func TestFreqRawWorstCase(t *testing.T) {
	s := server.XeonE5410()
	refs := []float64{4, 4}
	// Fully correlated pair filling the server: f = 1 * (8/8) * fmax.
	got := FreqRaw([]int{0, 1}, refs, flatCost(1), s)
	if math.Abs(got-s.FMax()) > 1e-12 {
		t.Fatalf("worst-case freq = %v, want fmax %v", got, s.FMax())
	}
}

func TestFreqRawCorrelationDiscount(t *testing.T) {
	s := server.XeonE5410()
	refs := []float64{4, 4}
	// Anti-correlated (cost 1.5): f = (1/1.5)*(8/8)*2.3 ≈ 1.533.
	got := FreqRaw([]int{0, 1}, refs, flatCost(1.5), s)
	want := 2.3 / 1.5
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("discounted freq = %v, want %v", got, want)
	}
}

func TestFreqForServerSnapsUp(t *testing.T) {
	s := server.XeonE5410()
	refs := []float64{4, 4}
	// Raw 1.533 GHz snaps up to the 2.0 level.
	if got := FreqForServer([]int{0, 1}, refs, flatCost(1.5), s); got != 2.0 {
		t.Fatalf("snapped freq = %v, want 2.0", got)
	}
	// Raw at fmax stays at fmax.
	if got := FreqForServer([]int{0, 1}, refs, flatCost(1), s); got != 2.3 {
		t.Fatalf("snapped worst-case freq = %v, want 2.3", got)
	}
}

func TestFreqPlanAndWorstCasePlan(t *testing.T) {
	s := server.XeonE5410()
	p := &model.Placement{NumServers: 2, Assign: []int{0, 0, 1}}
	refs := []float64{4, 4, 2}
	plan := FreqPlan(p, refs, flatCost(1.5), s)
	if len(plan) != 2 {
		t.Fatalf("plan length = %d", len(plan))
	}
	if plan[0] != 2.0 {
		t.Fatalf("server 0 freq = %v, want discounted 2.0", plan[0])
	}
	if plan[1] != 2.0 {
		t.Fatalf("server 1 (lone 2-core VM) freq = %v, want 2.0", plan[1])
	}
	wc := WorstCaseFreqPlan(p, refs, s)
	if wc[0] != 2.3 {
		t.Fatalf("worst-case server 0 freq = %v, want 2.3", wc[0])
	}
	if wc[1] != 2.0 {
		t.Fatalf("worst-case server 1 freq = %v, want 2.0", wc[1])
	}
}

func TestFreqNeverBelowDiscountedDemand(t *testing.T) {
	// Safety of Eqn 4 + snapping: capacity at the chosen level must cover
	// the correlation-discounted aggregate peak estimate Σû/Cost.
	s := server.XeonE5410()
	for _, cost := range []float64{1, 1.2, 1.5, 2} {
		for _, load := range []float64{2, 4, 6, 8} {
			refs := []float64{load / 2, load / 2}
			f := FreqForServer([]int{0, 1}, refs, flatCost(cost), s)
			capacity := s.CapacityAt(f)
			discounted := load / cost
			if capacity+1e-9 < math.Min(discounted, s.Capacity()) {
				t.Fatalf("cost=%v load=%v: capacity %v < discounted demand %v",
					cost, load, capacity, discounted)
			}
		}
	}
}

// TestPlansMatchPerServerMembers: grouping the members in one pass gives
// each server its VMsOn list, so both plans keep the bits of a plan that
// asks VMsOn server by server. Appending to one server's members leaves
// the next server's alone.
func TestPlansMatchPerServerMembers(t *testing.T) {
	spec := server.XeonFineGrained()
	rng := rand.New(rand.NewSource(3))
	for trial := range 200 {
		p := &model.Placement{NumServers: 1 + rng.Intn(12), Assign: make([]int, rng.Intn(40))}
		refs := make([]float64, len(p.Assign))
		for i := range p.Assign {
			p.Assign[i] = rng.Intn(p.NumServers)
			refs[i] = 3 * rng.Float64()
		}
		cost := func(i, j int) float64 {
			if i == j {
				return 1
			}
			return 1 + float64((i*7+j*7)%5)/10
		}
		members := Members(p)
		plan, worst := FreqPlan(p, refs, cost, spec), WorstCaseFreqPlan(p, refs, spec)
		for s := range p.NumServers {
			want := p.VMsOn(s)
			if !reflect.DeepEqual(members[s], want) {
				t.Fatalf("trial %d server %d: members %v, want %v", trial, s, members[s], want)
			}
			sum := 0.0
			for _, v := range want {
				sum += refs[v]
			}
			if f := FreqForServer(want, refs, cost, spec); math.Float64bits(plan[s]) != math.Float64bits(f) {
				t.Fatalf("trial %d server %d: FreqPlan %v, want %v", trial, s, plan[s], f)
			}
			if f := spec.MinLevelForDemand(sum); math.Float64bits(worst[s]) != math.Float64bits(f) {
				t.Fatalf("trial %d server %d: WorstCaseFreqPlan %v, want %v", trial, s, worst[s], f)
			}
		}
		for s := range p.NumServers - 1 {
			next := append([]int(nil), members[s+1]...)
			_ = append(members[s], -1)
			if !reflect.DeepEqual(members[s+1], next) {
				t.Fatalf("trial %d: appending to server %d changed server %d", trial, s, s+1)
			}
		}
	}
}
