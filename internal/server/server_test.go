package server

import (
	"math"
	"testing"
	"testing/quick"

	"repro/pkg/dcsim/model"
)

func TestSpecValidate(t *testing.T) {
	good := XeonE5410()
	if err := good.Validate(); err != nil {
		t.Fatalf("XeonE5410 invalid: %v", err)
	}
	if err := OpteronR815().Validate(); err != nil {
		t.Fatalf("OpteronR815 invalid: %v", err)
	}
	bad := []model.ServerSpec{
		{Name: "no-cores", Cores: 0, Freqs: []float64{1}},
		{Name: "no-freqs", Cores: 8},
		{Name: "unsorted", Cores: 8, Freqs: []float64{2.3, 2.0}},
		{Name: "zero-freq", Cores: 8, Freqs: []float64{0, 1}},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %q should be invalid", s.Name)
		}
	}
}

func TestCapacity(t *testing.T) {
	s := XeonE5410()
	if s.FMax() != 2.3 || s.FMin() != 2.0 {
		t.Fatalf("fmax=%v fmin=%v", s.FMax(), s.FMin())
	}
	if got := s.Capacity(); got != 8 {
		t.Fatalf("capacity = %v, want 8", got)
	}
	want := 8 * 2.0 / 2.3
	if got := s.CapacityAt(2.0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("capacity@2.0 = %v, want %v", got, want)
	}
}

func TestLevelFor(t *testing.T) {
	s := XeonE5410()
	cases := []struct{ f, want float64 }{
		{0.5, 2.0}, {2.0, 2.0}, {2.1, 2.3}, {2.3, 2.3}, {9, 2.3},
	}
	for _, c := range cases {
		if got := s.LevelFor(c.f); got != c.want {
			t.Errorf("LevelFor(%v) = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestLevelIndex(t *testing.T) {
	s := XeonE5410()
	if s.LevelIndex(2.0) != 0 || s.LevelIndex(2.3) != 1 {
		t.Fatal("level indices wrong")
	}
	if s.LevelIndex(1.0) != -1 {
		t.Fatal("missing level should be -1")
	}
}

func TestMinLevelForDemand(t *testing.T) {
	s := XeonE5410()
	if got := s.MinLevelForDemand(5); got != 2.0 {
		t.Fatalf("demand 5 -> %v, want 2.0 (cap %.3f)", got, s.CapacityAt(2.0))
	}
	if got := s.MinLevelForDemand(7.5); got != 2.3 {
		t.Fatalf("demand 7.5 -> %v, want 2.3", got)
	}
	if got := s.MinLevelForDemand(100); got != 2.3 {
		t.Fatalf("impossible demand -> %v, want fmax", got)
	}
}

func TestLevelForAlwaysCoversOrIsMax(t *testing.T) {
	s := XeonE5410()
	f := func(raw uint16) bool {
		want := float64(raw) / 1000 // 0 .. 65.5 GHz
		lvl := s.LevelFor(want)
		if s.LevelIndex(lvl) == -1 {
			return false
		}
		// Either the level covers the request or it is fmax.
		return lvl >= want-1e-9 || lvl == s.FMax()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
