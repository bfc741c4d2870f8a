package exp

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/pkg/dcsim"
	"repro/pkg/dcsim/model"
)

// Fig3Point is one scatter point of Fig. 3.
type Fig3Point struct {
	Cost     float64 // X: weighted average correlation cost (Eqn 2)
	Slowdown float64 // Y: Σû / û(aggregate) — the possible v/f slowdown
	Size     int     // VMs in the group
}

// Fig3Result reproduces Fig. 3: the possible v/f slowdown of a server is
// lower-bounded (approximately linearly) by its Eqn-2 correlation cost —
// the empirical relationship that licenses Eqn 4.
type Fig3Result struct {
	Points []Fig3Point
	Fit    stats.Linear
	// AboveLineFrac is the fraction of points with Slowdown >= Cost - eps
	// (the Y=X lower-bound claim).
	AboveLineFrac float64
}

// Fig3 samples random VM groups from the Setup-2 traces and evaluates both
// axes over one placement period.
func Fig3(o model.RunOptions) (*Fig3Result, error) {
	w := workload(o)
	ds, err := dcsim.GenerateTraces(w)
	if err != nil {
		return nil, err
	}
	// The group-sampling rng derives from the run's trace seed (offset so
	// it does not replay the generator's own stream): sweep replicas at
	// different seeds sample different groups, instead of all replaying
	// one hardcoded draw.
	rng := rand.New(rand.NewSource(w.Seed + 0x5EED))
	period := o.PeriodSamples
	nVM := len(ds.Fine)

	out := &Fig3Result{}
	var xs, ys []float64
	above := 0
	for g := 0; g < o.Fig3Groups; g++ {
		size := 2 + rng.Intn(4) // 2..5 VMs
		perm := rng.Perm(nVM)[:size]
		start := rng.Intn(ds.Fine[0].Len()/period) * period
		wins := make([]*model.Series, size)
		refs := make([]float64, size)
		members := make([]int, size)
		for i, v := range perm {
			wins[i] = ds.Fine[v].Slice(start, start+period)
			refs[i] = wins[i].Max()
			members[i] = i
		}
		cost := func(i, j int) float64 {
			return core.CostOf(wins[i].Samples(), wins[j].Samples(), 1)
		}
		x := core.ServerCost(members, refs, cost)
		agg, err := model.AggregateSeries(wins...)
		if err != nil {
			return nil, err
		}
		sum := 0.0
		for _, r := range refs {
			sum += r
		}
		if agg.Max() <= 0 {
			continue
		}
		y := sum / agg.Max()
		out.Points = append(out.Points, Fig3Point{Cost: x, Slowdown: y, Size: size})
		xs = append(xs, x)
		ys = append(ys, y)
		if y >= x-0.02 {
			above++
		}
	}
	out.Fit = stats.FitLinear(xs, ys)
	if len(out.Points) > 0 {
		out.AboveLineFrac = float64(above) / float64(len(out.Points))
	}
	return out, nil
}

// String implements fmt.Stringer; it renders a coarse ASCII scatter.
func (r *Fig3Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 3 — possible v/f slowdown vs server correlation cost\n")
	fmt.Fprintf(&b, "  %d groups; fit: slowdown = %.2f + %.2f*cost (R²=%.2f); %.0f%% of points on/above Y=X\n",
		len(r.Points), r.Fit.A, r.Fit.B, r.Fit.R2, 100*r.AboveLineFrac)
	// ASCII scatter: x in [1, 2], y in [1, 2.5].
	const w, h = 56, 14
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	for _, p := range r.Points {
		xi := int((p.Cost - 1) / 1.0 * float64(w-1))
		yi := int((p.Slowdown - 1) / 1.5 * float64(h-1))
		if xi < 0 || xi >= w || yi < 0 || yi >= h {
			continue
		}
		grid[h-1-yi][xi] = '*'
	}
	// Y=X reference line.
	for xi := 0; xi < w; xi++ {
		x := 1 + float64(xi)/float64(w-1)
		yi := int((x - 1) / 1.5 * float64(h-1))
		if yi >= 0 && yi < h && grid[h-1-yi][xi] == ' ' {
			grid[h-1-yi][xi] = '.'
		}
	}
	for i, row := range grid {
		label := "        "
		if i == 0 {
			label = "y=2.5   "
		} else if i == h-1 {
			label = "y=1.0   "
		}
		fmt.Fprintf(&b, "  %s|%s|\n", label, string(row))
	}
	b.WriteString("          x: cost 1.0 .. 2.0 ('.' marks Y=X)\n")
	return b.String()
}
