package model

import "fmt"

// PowerLevel is one voltage/frequency operating point of a PowerModel.
type PowerLevel struct {
	Freq float64 `json:"freq"` // GHz
	Volt float64 `json:"volt"` // volts
}

// PowerModel computes server power as a function of utilization and
// frequency level, following the virtualized-server model of Pedram &
// Hwang (ICPPW 2010) the paper's Setup 2 uses: power is linear in CPU
// utilization between an idle and a busy point, and both points scale with
// the operating voltage/frequency level — dynamic power as f·V², static
// power as V.
//
// Absolute watt values are calibration constants; every paper result is
// reported normalized to the BFD baseline, which cancels them.
type PowerModel struct {
	Name string `json:"name"`
	// Levels must be ascending in frequency and cover every frequency the
	// paired ServerSpec can select.
	Levels []PowerLevel `json:"levels"`
	// IdleW and BusyW are the idle and fully-utilized power draw at the
	// highest level, in watts.
	IdleW float64 `json:"idle_w"`
	BusyW float64 `json:"busy_w"`
	// StaticFrac is the fraction of idle power that is static (leakage,
	// fans, chipset) and scales only with V; the rest of idle and all of
	// (BusyW-IdleW) are treated as dynamic and scale with f·V².
	StaticFrac float64 `json:"static_frac"`
}

// Validate reports whether the model is usable.
func (m PowerModel) Validate() error {
	if len(m.Levels) == 0 {
		return fmt.Errorf("model: power model %q has no levels", m.Name)
	}
	for i, l := range m.Levels {
		if l.Freq <= 0 || l.Volt <= 0 {
			return fmt.Errorf("model: power model %q level %d non-positive", m.Name, i)
		}
		if i > 0 && l.Freq <= m.Levels[i-1].Freq {
			return fmt.Errorf("model: power model %q levels not ascending", m.Name)
		}
	}
	if m.BusyW < m.IdleW {
		return fmt.Errorf("model: power model %q busy %v < idle %v", m.Name, m.BusyW, m.IdleW)
	}
	if m.StaticFrac < 0 || m.StaticFrac > 1 {
		return fmt.Errorf("model: power model %q static fraction %v out of [0,1]", m.Name, m.StaticFrac)
	}
	return nil
}

func (m PowerModel) level(f float64) (PowerLevel, error) {
	for _, l := range m.Levels {
		if l.Freq == f {
			return l, nil
		}
	}
	return PowerLevel{}, fmt.Errorf("model: power model %q has no level at %v GHz", m.Name, f)
}

func (m PowerModel) top() PowerLevel { return m.Levels[len(m.Levels)-1] }

// scales returns the dynamic (f·V²) and static (V) scaling factors of level
// l relative to the top level.
func (m PowerModel) scales(l PowerLevel) (dyn, stat float64) {
	t := m.top()
	dyn = (l.Freq * l.Volt * l.Volt) / (t.Freq * t.Volt * t.Volt)
	stat = l.Volt / t.Volt
	return dyn, stat
}

// Line returns the power line of frequency level f: the draw at
// utilization u is idle + span·u, with u clipped to [0, 1]. A simulator
// resolves it once per level change instead of once per sample. It returns
// an error when f is not one of the model's levels.
func (m PowerModel) Line(f float64) (idle, span float64, err error) {
	l, err := m.level(f)
	if err != nil {
		return 0, 0, err
	}
	dyn, stat := m.scales(l)
	idleStatic := m.IdleW * m.StaticFrac
	idleDynamic := m.IdleW * (1 - m.StaticFrac)
	idle = idleStatic*stat + idleDynamic*dyn
	span = (m.BusyW - m.IdleW) * dyn
	return idle, span, nil
}

// Power returns the server draw in watts at utilization u (fraction of the
// capacity available at frequency f, clipped to [0,1]) when running at
// frequency level f. It returns an error when f is not one of the model's
// levels.
func (m PowerModel) Power(u, f float64) (float64, error) {
	idle, span, err := m.Line(f)
	if err != nil {
		return 0, err
	}
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return idle + span*u, nil
}
