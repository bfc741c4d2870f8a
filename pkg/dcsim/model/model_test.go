package model

import (
	"strings"
	"testing"
	"time"
)

func TestServerSpecValidate(t *testing.T) {
	valid := ServerSpec{Name: "ok", Cores: 8, Freqs: []float64{2.0, 2.3}}
	cases := []struct {
		name    string
		spec    ServerSpec
		wantErr string // substring; empty means valid
	}{
		{"valid two-level", valid, ""},
		{"valid one-level", ServerSpec{Name: "one", Cores: 1, Freqs: []float64{1.0}}, ""},
		{"zero cores", ServerSpec{Name: "c0", Cores: 0, Freqs: []float64{2.0}}, "cores"},
		{"negative cores", ServerSpec{Name: "c-", Cores: -4, Freqs: []float64{2.0}}, "cores"},
		{"empty freq ladder", ServerSpec{Name: "nofreq", Cores: 8, Freqs: nil}, "no frequency levels"},
		{"non-monotonic levels", ServerSpec{Name: "desc", Cores: 8, Freqs: []float64{2.3, 2.0}}, "not ascending"},
		{"non-monotonic middle", ServerSpec{Name: "dip", Cores: 8, Freqs: []float64{1.6, 2.2, 2.0, 2.3}}, "not ascending"},
		{"zero frequency", ServerSpec{Name: "f0", Cores: 8, Freqs: []float64{0, 2.0}}, "non-positive frequency"},
		{"negative frequency", ServerSpec{Name: "f-", Cores: 8, Freqs: []float64{-2.0, 2.0}}, "non-positive frequency"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestServerSpecCapacityAndLevels(t *testing.T) {
	s := ServerSpec{Name: "x", Cores: 8, Freqs: []float64{2.0, 2.3}}
	if got := s.Capacity(); got != 8 {
		t.Fatalf("Capacity() = %v", got)
	}
	if got := s.CapacityAt(2.3); got != 8 {
		t.Fatalf("CapacityAt(fmax) = %v", got)
	}
	if got, want := s.CapacityAt(2.0), float64(s.Cores)*2.0/2.3; got != want {
		t.Fatalf("CapacityAt(2.0) = %v, want %v", got, want)
	}
	if got := s.LevelFor(1.0); got != 2.0 {
		t.Fatalf("LevelFor(1.0) = %v, want snap up to 2.0", got)
	}
	if got := s.LevelFor(2.1); got != 2.3 {
		t.Fatalf("LevelFor(2.1) = %v, want 2.3", got)
	}
	if got := s.LevelFor(9.9); got != 2.3 {
		t.Fatalf("LevelFor(9.9) = %v, want clamp to fmax", got)
	}
	if got := s.LevelIndex(2.0); got != 0 {
		t.Fatalf("LevelIndex(2.0) = %d", got)
	}
	if got := s.LevelIndex(1.9); got != -1 {
		t.Fatalf("LevelIndex(1.9) = %d, want -1", got)
	}
	if got := s.MinLevelForDemand(7.5); got != 2.3 {
		t.Fatalf("MinLevelForDemand(7.5) = %v, want 2.3", got)
	}
	if got := s.MinLevelForDemand(6.0); got != 2.0 {
		t.Fatalf("MinLevelForDemand(6.0) = %v, want 2.0", got)
	}
}

func TestPlacementHelpers(t *testing.T) {
	p := &Placement{NumServers: 3, Assign: []int{0, 2, 0, 2}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.Active(); got != 2 {
		t.Fatalf("Active() = %d, want 2", got)
	}
	if got := p.VMsOn(2); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("VMsOn(2) = %v", got)
	}
	reqs := []Request{{Ref: 1}, {Ref: 2}, {Ref: 3}, {Ref: 4}}
	load := p.ProvisionedLoad(reqs)
	if load[0] != 4 || load[1] != 0 || load[2] != 6 {
		t.Fatalf("ProvisionedLoad = %v", load)
	}
	bad := &Placement{NumServers: 1, Assign: []int{0, 1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range assignment should fail Validate")
	}
}

func TestRunOptionsIsPlainJSON(t *testing.T) {
	// RunOptions must round-trip through JSON untouched — it is the
	// serializable contract remote experiment drivers ship around.
	o := RunOptions{
		WebSearchDuration: 240,
		VMs:               16, Groups: 4, Hours: 6, Seed: 3,
		PeriodSamples: 720, MaxServers: 8,
		CacheWarmKI: 2000, CacheMeasKI: 5000,
		Fig3Groups: 60, Workers: 4,
	}
	var back RunOptions
	roundTripJSON(t, o, &back)
	if back != o {
		t.Fatalf("round trip changed options: %+v vs %+v", back, o)
	}
}

func TestVMRefOver(t *testing.T) {
	s := NewSeries(time.Second, 8)
	s.Append(1, 2, 3, 4, 3, 2, 1, 0)
	vm := NewVM("vm0", s)
	if got := vm.RefOver(0, 4, 1); got != 4 {
		t.Fatalf("RefOver peak = %v, want 4", got)
	}
	if got := vm.RefOver(4, 8, 1); got != 3 {
		t.Fatalf("RefOver second half = %v, want 3", got)
	}
}

func TestNewAndString(t *testing.T) {
	s := SeriesFromSamples(5*time.Second, []float64{1, 2, 3})
	v := NewVM("vm1", s)
	if v.ID != "vm1" || v.Demand.Len() != 3 {
		t.Fatalf("vm = %+v", v)
	}
	if v.String() == "" {
		t.Fatal("String should be non-empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("nil demand should panic")
		}
	}()
	NewVM("bad", nil)
}

func TestRefOver(t *testing.T) {
	s := SeriesFromSamples(time.Second, []float64{1, 9, 2, 3, 4})
	v := NewVM("vm", s)
	if got := v.RefOver(0, 5, 1); got != 9 {
		t.Fatalf("peak = %v, want 9", got)
	}
	if got := v.RefOver(2, 5, 1); got != 4 {
		t.Fatalf("windowed peak = %v, want 4", got)
	}
	p := v.RefOver(0, 5, 0.5)
	if p != s.Percentile(0.5) {
		t.Fatalf("percentile ref = %v, want %v", p, s.Percentile(0.5))
	}
}

func TestFromSeries(t *testing.T) {
	a := SeriesFromSamples(time.Second, []float64{1})
	b := SeriesFromSamples(time.Second, []float64{2})
	vms := VMsFromSeries([]string{"a", "b"}, []*Series{a, b})
	if len(vms) != 2 || vms[1].ID != "b" {
		t.Fatalf("vms = %v", vms)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths should panic")
		}
	}()
	VMsFromSeries([]string{"a"}, nil)
}
