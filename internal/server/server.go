// Package server holds the concrete server models of the paper's two
// setups. The spec type itself — Cores plus a discrete frequency ladder,
// with capacity scaling linearly in f — is the public contract
// model.ServerSpec; this package only provides the calibrated instances.
package server

import "repro/pkg/dcsim/model"

// XeonE5410 is the paper's Setup-2 target: 8 cores, 2.0 and 2.3 GHz.
func XeonE5410() model.ServerSpec {
	return model.ServerSpec{Name: "Intel Xeon E5410", Cores: 8, Freqs: []float64{2.0, 2.3}}
}

// OpteronR815 is the paper's Setup-1 host (DELL PowerEdge R815 with an AMD
// Opteron 6174, used as an 8-core partition with 1.9 and 2.1 GHz levels).
func OpteronR815() model.ServerSpec {
	return model.ServerSpec{Name: "AMD Opteron 6174 (R815)", Cores: 8, Freqs: []float64{1.9, 2.1}}
}

// XeonFineGrained is a hypothetical variant of the Setup-2 server with six
// DVFS levels instead of two. The paper's Eqn-4 discount is quantized by
// level snapping; finer levels let it cash in more of the correlation
// headroom (ablation A7).
func XeonFineGrained() model.ServerSpec {
	return model.ServerSpec{
		Name:  "Intel Xeon (fine-grained DVFS)",
		Cores: 8,
		Freqs: []float64{1.6, 1.8, 2.0, 2.1, 2.2, 2.3},
	}
}
