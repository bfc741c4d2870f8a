package power

import (
	"math"
	"testing"
	"testing/quick"

	"repro/pkg/dcsim/model"
)

func TestValidate(t *testing.T) {
	if err := XeonE5410().Validate(); err != nil {
		t.Fatalf("XeonE5410: %v", err)
	}
	if err := OpteronR815().Validate(); err != nil {
		t.Fatalf("OpteronR815: %v", err)
	}
	bad := []model.PowerModel{
		{Name: "no-levels", IdleW: 1, BusyW: 2},
		{Name: "neg", Levels: []model.PowerLevel{{Freq: -1, Volt: 1}}, IdleW: 1, BusyW: 2},
		{Name: "unsorted", Levels: []model.PowerLevel{{Freq: 2, Volt: 1}, {Freq: 1, Volt: 1}}, IdleW: 1, BusyW: 2},
		{Name: "busy<idle", Levels: []model.PowerLevel{{Freq: 1, Volt: 1}}, IdleW: 3, BusyW: 2},
		{Name: "badfrac", Levels: []model.PowerLevel{{Freq: 1, Volt: 1}}, IdleW: 1, BusyW: 2, StaticFrac: 2},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %q should be invalid", m.Name)
		}
	}
}

func TestPowerEndpoints(t *testing.T) {
	m := XeonE5410()
	top := m.Levels[len(m.Levels)-1].Freq
	idle, err := m.Power(0, top)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(idle-m.IdleW) > 1e-9 {
		t.Fatalf("idle power at fmax = %v, want %v", idle, m.IdleW)
	}
	busy, err := m.Power(1, top)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(busy-m.BusyW) > 1e-9 {
		t.Fatalf("busy power at fmax = %v, want %v", busy, m.BusyW)
	}
}

func TestLowerLevelDrawsLess(t *testing.T) {
	for _, m := range []model.PowerModel{XeonE5410(), OpteronR815()} {
		lo := m.Levels[0].Freq
		hi := m.Levels[len(m.Levels)-1].Freq
		for _, u := range []float64{0, 0.25, 0.5, 0.75, 1} {
			pl, err := m.Power(u, lo)
			if err != nil {
				t.Fatal(err)
			}
			ph, err := m.Power(u, hi)
			if err != nil {
				t.Fatal(err)
			}
			if pl >= ph {
				t.Fatalf("%s u=%v: low level %vW >= high level %vW", m.Name, u, pl, ph)
			}
		}
	}
}

func TestPowerUnknownLevel(t *testing.T) {
	m := XeonE5410()
	if _, err := m.Power(0.5, 1.234); err == nil {
		t.Fatal("unknown frequency should error")
	}
	if _, _, err := m.Line(1.234); err == nil {
		t.Fatal("unknown frequency should have no power line")
	}
}

// TestLineIsPower: a level's power line gives Power's draw, bit for bit,
// at every utilization once it is clipped to [0, 1].
func TestLineIsPower(t *testing.T) {
	for _, m := range []model.PowerModel{XeonE5410(), XeonFineGrained(), OpteronR815()} {
		for _, l := range m.Levels {
			idle, span, err := m.Line(l.Freq)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range []float64{-1, math.Copysign(0, -1), 0, 0.3, 0.77, 1, 2} {
				got, err := m.Power(u, l.Freq)
				if err != nil {
					t.Fatal(err)
				}
				want := idle + span*math.Min(math.Max(u, 0), 1)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s at %v GHz, u=%v: Power %v, line %v", m.Name, l.Freq, u, got, want)
				}
			}
		}
	}
}

func TestPowerClipsUtilization(t *testing.T) {
	m := XeonE5410()
	top := 2.3
	over, _ := m.Power(1.7, top)
	atOne, _ := m.Power(1, top)
	if over != atOne {
		t.Fatalf("u>1 should clip: %v vs %v", over, atOne)
	}
	under, _ := m.Power(-3, top)
	atZero, _ := m.Power(0, top)
	if under != atZero {
		t.Fatalf("u<0 should clip: %v vs %v", under, atZero)
	}
}

func TestPowerMonotoneInUtilization(t *testing.T) {
	m := XeonE5410()
	f := func(a, b uint8) bool {
		u1 := float64(a) / 255
		u2 := float64(b) / 255
		if u1 > u2 {
			u1, u2 = u2, u1
		}
		p1, err1 := m.Power(u1, 2.0)
		p2, err2 := m.Power(u2, 2.0)
		return err1 == nil && err2 == nil && p1 <= p2+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLevelSavingIsMeaningful(t *testing.T) {
	// The paper's static-scaling experiment hinges on the low level saving
	// roughly 10-20% server power; make sure the calibration stays there.
	m := XeonE5410()
	hi, _ := m.Power(0.7, 2.3)
	lo, _ := m.Power(0.7*2.3/2.0, 2.0) // same absolute work at lower level
	saving := 1 - lo/hi
	if saving < 0.05 || saving > 0.30 {
		t.Fatalf("level saving = %.3f, want within [0.05, 0.30]", saving)
	}
}
