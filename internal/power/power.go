// Package power holds the calibrated power models of the paper's servers.
// The model type itself — linear-in-utilization between an idle and a busy
// point, both scaling with the voltage/frequency level (Pedram & Hwang,
// ICPPW 2010) — is the public contract model.PowerModel; this package only
// provides the fitted instances.
package power

import "repro/pkg/dcsim/model"

// XeonE5410 returns a model calibrated for the paper's Setup-2 server:
// two levels, 2.0 GHz / 1.10 V and 2.3 GHz / 1.20 V. Idle/busy watts follow
// published SPECpower-era measurements for that part (~180 W idle, ~265 W
// busy at the top level).
func XeonE5410() model.PowerModel {
	return model.PowerModel{
		Name: "Intel Xeon E5410",
		Levels: []model.PowerLevel{
			{Freq: 2.0, Volt: 1.10},
			{Freq: 2.3, Volt: 1.20},
		},
		IdleW:      180,
		BusyW:      265,
		StaticFrac: 0.55,
	}
}

// XeonFineGrained returns the power model for server.XeonFineGrained:
// six levels with voltages interpolated between the E5410's endpoints.
func XeonFineGrained() model.PowerModel {
	return model.PowerModel{
		Name: "Intel Xeon (fine-grained DVFS)",
		Levels: []model.PowerLevel{
			{Freq: 1.6, Volt: 0.95},
			{Freq: 1.8, Volt: 1.02},
			{Freq: 2.0, Volt: 1.10},
			{Freq: 2.1, Volt: 1.13},
			{Freq: 2.2, Volt: 1.16},
			{Freq: 2.3, Volt: 1.20},
		},
		IdleW:      180,
		BusyW:      265,
		StaticFrac: 0.55,
	}
}

// OpteronR815 returns a model for the Setup-1 host with its 1.9 and
// 2.1 GHz levels.
func OpteronR815() model.PowerModel {
	return model.PowerModel{
		Name: "AMD Opteron 6174 (R815)",
		Levels: []model.PowerLevel{
			{Freq: 1.9, Volt: 1.05},
			{Freq: 2.1, Volt: 1.15},
		},
		IdleW:      210,
		BusyW:      330,
		StaticFrac: 0.50,
	}
}
