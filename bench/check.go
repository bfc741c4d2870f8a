package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"repro/pkg/dcsim"
)

// checkResult reports the first conservation law a finished run breaks:
// energy and migrations must sum over the periods, every period of the
// horizon must be present, and frequency residency must count exactly the
// active-server samples.
func checkResult(res *dcsim.Result, sc dcsim.Scenario) error {
	if res == nil {
		return fmt.Errorf("nil result")
	}
	wantPeriods := sc.Workload.Hours * samplesPerHour / sc.PeriodSamples
	if len(res.Periods) != wantPeriods {
		return fmt.Errorf("%d periods, want %d", len(res.Periods), wantPeriods)
	}
	energy, migrations, activeSamples := 0.0, 0, 0
	for _, p := range res.Periods {
		energy += p.EnergyJ
		migrations += p.Migrations
		activeSamples += p.ActiveServers * sc.PeriodSamples
	}
	if !(res.EnergyJ > 0) || math.IsInf(res.EnergyJ, 1) {
		return fmt.Errorf("energy %v J", res.EnergyJ)
	}
	if math.Abs(energy-res.EnergyJ) > 1e-9*res.EnergyJ {
		return fmt.Errorf("period energy sums to %v J, result says %v J", energy, res.EnergyJ)
	}
	if migrations != res.TotalMigrations {
		return fmt.Errorf("period migrations sum to %d, result says %d", migrations, res.TotalMigrations)
	}
	residency := 0
	for _, levels := range res.FreqResidency {
		for _, n := range levels {
			residency += n
		}
	}
	if residency != activeSamples {
		return fmt.Errorf("frequency residency counts %d samples, active servers ran %d", residency, activeSamples)
	}
	return nil
}

// digest fingerprints a result, so repeated runs of one input can be
// compared for bit-identical output. %v prints each float in its shortest
// exact form, NaN included.
func digest(res *dcsim.Result) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", *res)))
	return hex.EncodeToString(sum[:8])
}
