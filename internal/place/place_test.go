package place

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/server"
	"repro/pkg/dcsim/model"
)

func spec8() model.ServerSpec { return server.XeonE5410() }

func reqsFromRefs(refs ...float64) []model.Request {
	out := make([]model.Request, len(refs))
	for i, r := range refs {
		out[i] = model.Request{ID: string(rune('a' + i)), Ref: r, OffPeak: r * 0.8}
	}
	return out
}

func TestFFDSimple(t *testing.T) {
	// 4+4 fills one server; 5+4 needs two.
	p, err := FFD{}.Place(reqsFromRefs(4, 4), spec8(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if p.Active() != 1 {
		t.Fatalf("4+4 on 8 cores should use 1 server, got %d", p.Active())
	}
	p, err = FFD{}.Place(reqsFromRefs(5, 4), spec8(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if p.Active() != 2 {
		t.Fatalf("5+4 should use 2 servers, got %d", p.Active())
	}
}

func TestBFDPrefersTightestFit(t *testing.T) {
	// After placing 6 and 4 (two servers with rem 2 and 4), a VM of 2
	// must land with the 6 (rem 2, tightest) under BFD.
	p, err := BFD{}.Place(reqsFromRefs(6, 4, 2), spec8(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if p.Assign[2] != p.Assign[0] {
		t.Fatalf("BFD should co-locate the 2 with the 6: %v", p.Assign)
	}
	if p.Active() != 2 {
		t.Fatalf("active = %d, want 2", p.Active())
	}
}

func TestFFDvsBFDDiffer(t *testing.T) {
	// FFD puts the 2 with the 6 too (first fit), but with sizes 6,4,4,2
	// FFD opens: s0={6,2}? No: order 6,4,4,2 -> s0={6}, s1={4,4}, 2->s0.
	// BFD: 6->s0, 4->s0? rem 2 no; s1={4,4}, 2->s0 (rem2 tight). Same here;
	// use a sharper case: 5,4,3,3 cap 8.
	// FFD: s0={5,3}, s1={4,3}. BFD: 5->s0,4->s1(5 doesn't fit with... )
	ffd, _ := FFD{}.Place(reqsFromRefs(5, 4, 3, 3), spec8(), 10)
	bfd, _ := BFD{}.Place(reqsFromRefs(5, 4, 3, 3), spec8(), 10)
	if ffd.Active() != 2 || bfd.Active() != 2 {
		t.Fatalf("both should use 2 servers: ffd=%d bfd=%d", ffd.Active(), bfd.Active())
	}
}

func TestForcedOvercommit(t *testing.T) {
	// One server, demand exceeding capacity: everything must still land.
	for _, pol := range []model.Policy{FFD{}, BFD{}} {
		p, err := pol.Place(reqsFromRefs(6, 6, 6), spec8(), 1)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if p.NumServers != 1 {
			t.Fatalf("%s: servers = %d, want 1", pol.Name(), p.NumServers)
		}
		load := p.ProvisionedLoad(reqsFromRefs(6, 6, 6))
		if math.Abs(load[0]-18) > 1e-9 {
			t.Fatalf("%s: load = %v, want 18", pol.Name(), load[0])
		}
	}
}

func TestNoServersError(t *testing.T) {
	for _, pol := range []model.Policy{FFD{}, BFD{}, PCP{}} {
		if _, err := pol.Place(reqsFromRefs(1), spec8(), 0); err == nil {
			t.Errorf("%s should reject maxServers=0", pol.Name())
		}
	}
}

func TestInvalidSpecError(t *testing.T) {
	bad := model.ServerSpec{Name: "bad", Cores: 0, Freqs: []float64{1}}
	for _, pol := range []model.Policy{FFD{}, BFD{}, PCP{}} {
		if _, err := pol.Place(reqsFromRefs(1), bad, 4); err == nil {
			t.Errorf("%s should reject invalid spec", pol.Name())
		}
	}
}

func TestEmptyRequests(t *testing.T) {
	for _, pol := range []model.Policy{FFD{}, BFD{}, PCP{}} {
		p, err := pol.Place(nil, spec8(), 4)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if p.NumServers < 1 {
			t.Fatalf("%s: NumServers = %d", pol.Name(), p.NumServers)
		}
	}
}

func TestPlacementHelpers(t *testing.T) {
	p := &model.Placement{NumServers: 3, Assign: []int{0, 2, 0}}
	if got := p.VMsOn(0); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("VMsOn(0) = %v", got)
	}
	if got := p.VMsOn(1); got != nil {
		t.Fatalf("VMsOn(1) = %v, want nil", got)
	}
	if p.Active() != 2 {
		t.Fatalf("Active = %d, want 2", p.Active())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &model.Placement{NumServers: 1, Assign: []int{3}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range assignment should fail validation")
	}
}

// mkWindow builds a demand window peaking in the given half of the series.
func mkWindow(peakFirstHalf bool, n int, seed int64) *model.Series {
	rng := rand.New(rand.NewSource(seed))
	s := model.NewSeries(time.Second, n)
	for i := 0; i < n; i++ {
		base := 0.5 + 0.1*rng.Float64()
		inPeak := (i < n/2) == peakFirstHalf
		if inPeak {
			base += 3
		}
		s.Append(base)
	}
	return s
}

func TestPCPSeparatesDistinctEnvelopes(t *testing.T) {
	// Two anti-phased groups of VMs -> two clusters -> PCP co-locates
	// across groups.
	n := 200
	reqs := make([]model.Request, 4)
	for i := range reqs {
		first := i < 2
		w := mkWindow(first, n, int64(i))
		reqs[i] = model.Request{
			ID:            string(rune('a' + i)),
			Ref:           w.Max(),
			OffPeak:       w.Percentile(0.9),
			WindowOffPeak: w.Percentile(0.9),
			Window:        w,
		}
	}
	p, err := PCP{}.Place(reqs, spec8(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// The two same-group VMs peak together (~7 cores aggregated at the
	// peak); PCP should avoid pairing 0 with 1 or 2 with 3 when capacity
	// forces pairing at all.
	if p.Active() == 2 {
		if p.Assign[0] == p.Assign[1] || p.Assign[2] == p.Assign[3] {
			t.Fatalf("PCP paired same-cluster VMs: %v", p.Assign)
		}
	}
}

func TestPCPDegeneratesToBFDWithOneCluster(t *testing.T) {
	// All VMs share the same envelope -> one cluster -> identical
	// placement to BFD on Ref (the paper's Setup-2 observation).
	n := 100
	w := mkWindow(true, n, 1)
	reqs := make([]model.Request, 5)
	for i := range reqs {
		reqs[i] = model.Request{
			ID:            string(rune('a' + i)),
			Ref:           3 + float64(i)*0.3,
			OffPeak:       2 + float64(i)*0.3,
			WindowOffPeak: w.Percentile(0.9),
			Window:        w.Clone(),
		}
	}
	pcp, err := PCP{}.Place(reqs, spec8(), 10)
	if err != nil {
		t.Fatal(err)
	}
	bfd, err := BFD{}.Place(reqs, spec8(), 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if pcp.Assign[i] != bfd.Assign[i] {
			t.Fatalf("degenerate PCP differs from BFD: %v vs %v", pcp.Assign, bfd.Assign)
		}
	}
}

func TestPCPNilWindows(t *testing.T) {
	// Without windows PCP has no signal and must still place everything.
	p, err := PCP{}.Place(reqsFromRefs(4, 4, 4), spec8(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPoliciesPlaceEverything(t *testing.T) {
	// Property: for random request sets, every policy yields a valid
	// placement using at most maxServers servers.
	policies := []model.Policy{FFD{}, BFD{}, PCP{}}
	f := func(rawRefs []uint8, maxRaw uint8) bool {
		if len(rawRefs) > 40 {
			rawRefs = rawRefs[:40]
		}
		maxServers := int(maxRaw%20) + 1
		reqs := make([]model.Request, len(rawRefs))
		for i, r := range rawRefs {
			ref := float64(r)/32 + 0.05 // 0.05 .. ~8
			reqs[i] = model.Request{Ref: ref, OffPeak: ref * 0.8}
		}
		for _, pol := range policies {
			p, err := pol.Place(reqs, spec8(), maxServers)
			if err != nil {
				return false
			}
			if p.NumServers > maxServers {
				return false
			}
			if p.Validate() != nil {
				return false
			}
			if len(p.Assign) != len(reqs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFFDRespectsCapacityWhenFeasible(t *testing.T) {
	// When total demand fits in maxServers, no server may exceed capacity.
	f := func(rawRefs []uint8) bool {
		reqs := []model.Request{}
		total := 0.0
		for _, r := range rawRefs {
			ref := float64(r%64)/16 + 0.1 // 0.1 .. ~4.1 (each fits a server)
			reqs = append(reqs, model.Request{Ref: ref})
			total += ref
		}
		if len(reqs) == 0 {
			return true
		}
		maxServers := int(math.Ceil(total/8)) + len(reqs) // generous
		p, err := FFD{}.Place(reqs, spec8(), maxServers)
		if err != nil {
			return false
		}
		for _, load := range p.ProvisionedLoad(reqs) {
			if load > 8+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
