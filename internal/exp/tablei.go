package exp

import (
	"fmt"

	"repro/internal/cachesim"
	"repro/pkg/dcsim/model"
	"repro/pkg/dcsim/report"
)

// llcBytes and llcWays model the shared last-level cache of the Setup-1
// host (the Opteron 6174 shares a 12 MiB L3 per die; two co-located VMs
// contend for roughly half of it).
const (
	llcBytes = 6 << 20
	llcWays  = 16
)

// TableIRow is one line of Table I: web-search metrics when co-located with
// one PARSEC workload (parenthesized values: running alone).
type TableIRow struct {
	CoRunner        string
	IPC, IPCAlone   float64
	MPKI, MPKIAlone float64
	Miss, MissAlone float64 // L2 miss rate, percent
}

// TableIResult reproduces Table I.
type TableIResult struct {
	Rows []TableIRow
	// MaxIPCDeltaPct is the largest relative IPC change across
	// co-runners — the "negligible variation" claim quantified.
	MaxIPCDeltaPct float64
}

// TableI measures the web-search stream alone and against each PARSEC-like
// co-runner on the shared cache.
func TableI(o model.RunOptions) (*TableIResult, error) {
	alone, err := cachesim.RunAlone(cachesim.WebSearch(1), llcBytes, llcWays, o.CacheWarmKI, o.CacheMeasKI)
	if err != nil {
		return nil, err
	}
	coRunners := []*cachesim.Workload{
		cachesim.Blackscholes(2),
		cachesim.Swaptions(3),
		cachesim.Facesim(4),
		cachesim.Canneal(5),
	}
	out := &TableIResult{}
	for _, co := range coRunners {
		ws, _, err := cachesim.RunShared(cachesim.WebSearch(1), co, llcBytes, llcWays, o.CacheWarmKI, o.CacheMeasKI)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, TableIRow{
			CoRunner: co.Name,
			IPC:      ws.IPC, IPCAlone: alone.IPC,
			MPKI: ws.MPKI, MPKIAlone: alone.MPKI,
			Miss: 100 * ws.MissRate, MissAlone: 100 * alone.MissRate,
		})
		d := 100 * abs(ws.IPC-alone.IPC) / alone.IPC
		if d > out.MaxIPCDeltaPct {
			out.MaxIPCDeltaPct = d
		}
	}
	return out, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// String implements fmt.Stringer.
func (r *TableIResult) String() string {
	t := report.NewTable("co-runner", "IPC", "L2 MPKI", "L2 miss rate (%)")
	for _, row := range r.Rows {
		t.AddRow("w/ "+row.CoRunner,
			fmt.Sprintf("%.2f (%.2f)", row.IPC, row.IPCAlone),
			fmt.Sprintf("%.2f (%.2f)", row.MPKI, row.MPKIAlone),
			fmt.Sprintf("%.2f (%.2f)", row.Miss, row.MissAlone))
	}
	return "Table I — web search co-located with PARSEC (alone in parentheses)\n" +
		t.String() +
		fmt.Sprintf("largest IPC change: %.1f%%\n", r.MaxIPCDeltaPct)
}
