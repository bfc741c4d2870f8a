package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/pkg/dcsim"
)

// tinyBase is a scenario small enough that a grid of runs stays fast:
// 1 simulated hour of 6 VMs, three placement periods.
func tinyBase() dcsim.Scenario {
	return dcsim.Scenario{
		Workload:      dcsim.Workload{VMs: 6, Groups: 2, Hours: 1},
		MaxServers:    5,
		PeriodSamples: 240,
	}
}

func tinyGrid() Grid {
	return Grid{
		Name: "tiny",
		Base: tinyBase(),
		Axes: []Axis{
			{Field: "policy", Values: []any{"bfd", "corr-aware"}},
			{Field: "rescale_every", Values: []any{0, 12}},
		},
		Replicas: 2,
	}
}

func TestCellsCanonicalOrder(t *testing.T) {
	g := tinyGrid()
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	// First axis slowest, second fastest.
	wantNames := []string{
		"policy=bfd rescale_every=0",
		"policy=bfd rescale_every=12",
		"policy=corr-aware rescale_every=0",
		"policy=corr-aware rescale_every=12",
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has index %d", i, c.Index)
		}
		if c.Name() != wantNames[i] {
			t.Errorf("cell %d name = %q, want %q", i, c.Name(), wantNames[i])
		}
	}
	// The governor re-pairs with the policy per cell, like sparse
	// scenario files.
	if g := cells[0].Scenario.Governor; g != "worst-case" {
		t.Errorf("bfd cell governor = %q, want worst-case", g)
	}
	if g := cells[2].Scenario.Governor; g != "eqn4" {
		t.Errorf("corr-aware cell governor = %q, want eqn4", g)
	}
}

func TestParamAxisCopyOnWrite(t *testing.T) {
	g := Grid{
		Base: dcsim.New(dcsim.WithPolicy("corr-aware")),
		Axes: []Axis{{Field: "param:thcost", Values: []any{1.0, 1.4}}},
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Scenario.Params["thcost"] == cells[1].Scenario.Params["thcost"] {
		t.Fatal("param axis cells alias the same params map")
	}
	if cells[0].Scenario.Params["thcost"] != 1.0 || cells[1].Scenario.Params["thcost"] != 1.4 {
		t.Fatalf("params = %v, %v", cells[0].Scenario.Params, cells[1].Scenario.Params)
	}
}

func TestReplicaSeeds(t *testing.T) {
	g := tinyGrid()
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	// The base seed is unset, so normalization fills the default 1.
	if s := cells[0].Replica(0, 3).Workload.Seed; s != 1 {
		t.Fatalf("replica 0 seed = %d, want 1", s)
	}
	if s := cells[0].Replica(2, 3).Workload.Seed; s != 7 {
		t.Fatalf("replica 2 seed = %d, want 1+2*3", s)
	}
}

// TestApplyAxes pins every scalar axis name: Apply sets exactly the
// field it names and nothing else, rejects a value of the wrong type, and
// rejects the names of fields that are not scalars.
func TestApplyAxes(t *testing.T) {
	cases := []struct {
		field string
		v     any
		set   func(*dcsim.Scenario)
		bad   any    // a value of the wrong type
		want  string // the error bad yields
	}{
		{"name", "n", func(sc *dcsim.Scenario) { sc.Name = "n" }, 1.0, "wants a string"},
		{"server", "s", func(sc *dcsim.Scenario) { sc.Server = "s" }, true, "wants a string"},
		{"policy", "bfd", func(sc *dcsim.Scenario) { sc.Policy = "bfd" }, 3.0, "wants a string"},
		{"governor", "eqn4", func(sc *dcsim.Scenario) { sc.Governor = "eqn4" }, 2, "wants a string"},
		{"predictor", "ewma", func(sc *dcsim.Scenario) { sc.Predictor = "ewma" }, false, "wants a string"},
		{"max_servers", 9.0, func(sc *dcsim.Scenario) { sc.MaxServers = 9 }, "9", "wants a number"},
		{"period_samples", 60, func(sc *dcsim.Scenario) { sc.PeriodSamples = 60 }, 60.5, "wants an integer"},
		{"rescale_every", int64(12), func(sc *dcsim.Scenario) { sc.RescaleEvery = 12 }, true, "wants a number"},
		{"pctl", 0.95, func(sc *dcsim.Scenario) { sc.Pctl = 0.95 }, "0.95", "wants a number"},
		{"off_pctl", 1, func(sc *dcsim.Scenario) { sc.OffPctl = 1 }, false, "wants a number"},
		{"cumulative_matrix", true, func(sc *dcsim.Scenario) { sc.CumulativeMatrix = true }, 1.0, "wants a bool"},
		{"oracle", true, func(sc *dcsim.Scenario) { sc.Oracle = true }, "true", "wants a bool"},
		{"kind", "trace-dir", func(sc *dcsim.Scenario) { sc.Workload.Kind = "trace-dir" }, 1.0, "wants a string"},
		{"workload.kind", "uncorrelated", func(sc *dcsim.Scenario) { sc.Workload.Kind = "uncorrelated" }, true, "wants a string"},
		{"path", "/p", func(sc *dcsim.Scenario) { sc.Workload.Path = "/p" }, 1.0, "wants a string"},
		{"workload.path", "/q", func(sc *dcsim.Scenario) { sc.Workload.Path = "/q" }, 1.0, "wants a string"},
		{"vms", 7.0, func(sc *dcsim.Scenario) { sc.Workload.VMs = 7 }, "7", "wants a number"},
		{"groups", 3, func(sc *dcsim.Scenario) { sc.Workload.Groups = 3 }, 2.5, "wants an integer"},
		{"hours", 5.0, func(sc *dcsim.Scenario) { sc.Workload.Hours = 5 }, false, "wants a number"},
		{"seed", -4.0, func(sc *dcsim.Scenario) { sc.Workload.Seed = -4 }, 1.5, "wants an integer"},
		{"workload.vms", 8, func(sc *dcsim.Scenario) { sc.Workload.VMs = 8 }, "8", "wants a number"},
		{"workload.groups", 4.0, func(sc *dcsim.Scenario) { sc.Workload.Groups = 4 }, 4.5, "wants an integer"},
		{"workload.hours", int64(2), func(sc *dcsim.Scenario) { sc.Workload.Hours = 2 }, true, "wants a number"},
		{"workload.seed", 9.0, func(sc *dcsim.Scenario) { sc.Workload.Seed = 9 }, "9", "wants a number"},
	}
	if len(axes) != len(cases) {
		t.Errorf("%d axis names, want the %d pinned here", len(axes), len(cases))
	}
	// No two fields share an axis name, which would leave one of them
	// unreachable: the names reach one field per scalar field.
	scalars, fields := 0, map[string]bool{}
	for _, st := range []reflect.Type{reflect.TypeFor[dcsim.Scenario](), reflect.TypeFor[dcsim.Workload]()} {
		for i := range st.NumField() {
			if scalar(st.Field(i).Type) {
				scalars++
			}
		}
	}
	for _, index := range axes {
		fields[fmt.Sprint(index)] = true
	}
	if len(fields) != scalars {
		t.Errorf("axis names reach %d fields, want all %d scalar fields", len(fields), scalars)
	}
	for _, c := range cases {
		sc, want := tinyBase(), tinyBase()
		c.set(&want)
		if err := Apply(&sc, c.field, c.v); err != nil {
			t.Errorf("Apply(%q, %v): %v", c.field, c.v, err)
		} else if !reflect.DeepEqual(sc, want) {
			t.Errorf("Apply(%q, %v) = %+v, want %+v", c.field, c.v, sc, want)
		}
		if err := Apply(&sc, c.field, c.bad); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Apply(%q, %v) = %v, want %q", c.field, c.bad, err, c.want)
		}
	}
	for _, field := range []string{"workload", "params", "options", "workload.options"} {
		for _, v := range []any{"x", 1.0, true, map[string]any{}} {
			sc := tinyBase()
			if err := Apply(&sc, field, v); err == nil || !strings.Contains(err.Error(), "unknown axis field") {
				t.Errorf("Apply(%q, %v) = %v, want unknown axis field", field, v, err)
			}
		}
	}
}

// TestApplyIntegerWidth: an integer is range-checked against its own
// field's width, so the int64 seed axis takes any value ParseScenario
// accepts into the same field, on every platform, while an int field
// still rejects what int cannot hold.
func TestApplyIntegerWidth(t *testing.T) {
	parsed, err := dcsim.ParseScenario([]byte(`{"workload": {"seed": 3000000000}}`))
	if err != nil {
		t.Fatal(err)
	}
	sc := tinyBase()
	if err := Apply(&sc, "seed", 3e9); err != nil || sc.Workload.Seed != parsed.Workload.Seed {
		t.Fatalf("Apply(seed, 3e9) = %v, seed %d, want seed %d", err, sc.Workload.Seed, parsed.Workload.Seed)
	}
	err = Apply(&sc, "vms", 3e9)
	if fits := math.MaxInt >= 3e9; fits != (err == nil) || !fits && !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("Apply(vms, 3e9) = %v on a %d-bit int", err, strconv.IntSize)
	}
}

func TestApplyRejects(t *testing.T) {
	sc := tinyBase()
	cases := []struct {
		field string
		v     any
		want  string
	}{
		{"nope", "x", "unknown axis field"},
		{"policy", 3.0, "wants a string"},
		{"vms", "many", "wants a number"},
		{"vms", 2.5, "wants an integer"},
		{"oracle", 1.0, "wants a bool"},
		{"param:", 1.0, "empty param name"},
		// Integral but outside int: int(f) would wrap these silently.
		{"seed", 1e19, "out of range"},
		{"vms", 1e30, "out of range"},
		{"hours", math.Inf(1), "out of range"},
	}
	for _, c := range cases {
		err := Apply(&sc, c.field, c.v)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Apply(%q, %v) = %v, want %q", c.field, c.v, err, c.want)
		}
	}
}

func TestValidateCatchesBadCells(t *testing.T) {
	// A param the selected components never read fails grid validation
	// before any simulation runs.
	g := Grid{
		Base: dcsim.New(dcsim.WithPolicy("bfd")),
		Axes: []Axis{{Field: "param:thcost", Values: []any{1.0}}},
	}
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "thcost") {
		t.Fatalf("err = %v, want unread-param failure", err)
	}
	// Unknown registry names fail too.
	g = Grid{Base: tinyBase(), Axes: []Axis{{Field: "policy", Values: []any{"warp-drive"}}}}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "warp-drive") {
		t.Fatalf("err = %v, want unknown-policy failure", err)
	}
	// So does an off-peak percentile of 1, which would run PCP at the
	// default 0.9 while the cell reports 1.
	base := tinyBase()
	base.Policy = "pcp"
	g = Grid{Base: base, Axes: []Axis{{Field: "off_pctl", Values: []any{0.8, 1.0}}}}
	err = g.Validate()
	if err == nil || !strings.Contains(err.Error(), "cell 1 (off_pctl=1)") || !strings.Contains(err.Error(), "OffPctl") {
		t.Fatalf("err = %v, want cell 1's off_pctl rejected", err)
	}
}

func TestParseGridRejectsUnknownFields(t *testing.T) {
	_, err := ParseGrid([]byte(`{"base": {}, "axis": []}`))
	if err == nil || !strings.Contains(err.Error(), "axis") {
		t.Fatalf("err = %v, want unknown-field rejection", err)
	}
}

// TestDecodeGridRejectsTrailingData: a grid file holds one JSON object. A
// second grid or junk after it is a parse error; white space and a final
// newline are not.
func TestDecodeGridRejectsTrailingData(t *testing.T) {
	grid, err := json.Marshal(tinyGrid())
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{" trailing", `{"name":"second grid"}`, "\n}"} {
		if _, err := DecodeGrid(append(grid, tail...)); err == nil || !strings.HasPrefix(err.Error(), "sweep: parse grid: ") {
			t.Errorf("grid followed by %q: %v, want a parse error", tail, err)
		}
	}
	if _, err := ParseGrid(append(grid, "\n \t\n"...)); err != nil {
		t.Errorf("grid followed by white space: %v", err)
	}
}

func TestParseGridRoundTrip(t *testing.T) {
	data := []byte(`{
		"name": "rt",
		"base": {"policy": "corr-aware", "workload": {"vms": 6, "groups": 2, "hours": 1}, "max_servers": 5, "period_samples": 240},
		"axes": [{"field": "param:thcost", "values": [1.0, 1.15]}],
		"replicas": 2
	}`)
	g, err := ParseGrid(data)
	if err != nil {
		t.Fatal(err)
	}
	n, err := g.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("runs = %d, want 2 cells x 2 replicas", n)
	}
}

// TestDeterministicAcrossWorkers is the sweep's core contract: the same
// grid yields byte-identical aggregate JSON at 1, 4, and 8 workers.
func TestDeterministicAcrossWorkers(t *testing.T) {
	g := tinyGrid()
	var golden []byte
	for _, workers := range []int{1, 4, 8} {
		res, err := Run(context.Background(), g, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !res.Complete || len(res.Cells) != 4 {
			t.Fatalf("workers=%d: incomplete result %d/%d", workers, len(res.Cells), res.TotalCells)
		}
		data, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if golden == nil {
			golden = data
			continue
		}
		if !bytes.Equal(golden, data) {
			t.Fatalf("workers=%d: aggregate JSON differs from workers=1", workers)
		}
	}
}

// TestCancellationReturnsCompletedCells cancels mid-grid and checks the
// partial result holds exactly the cells whose replicas all finished.
func TestCancellationReturnsCompletedCells(t *testing.T) {
	g := tinyGrid()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cellsSeen atomic.Int32
	opts := Options{
		Workers: 1,
		Progress: func(p Progress) {
			if p.Cell != nil && cellsSeen.Add(1) == 1 {
				cancel()
			}
		},
	}
	res, err := Run(ctx, g, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled sweep must still return the partial result")
	}
	if res.Complete {
		t.Fatal("cancelled sweep reported complete")
	}
	// Serial execution, cancelled after the first cell: exactly that
	// cell survives, and it is a fully aggregated one.
	if len(res.Cells) != 1 {
		t.Fatalf("completed cells = %d, want 1", len(res.Cells))
	}
	c := res.Cells[0]
	if c.Index != 0 || c.EnergyJ.N != 2 {
		t.Fatalf("partial cell = index %d with %d replicas, want index 0 with 2", c.Index, c.EnergyJ.N)
	}
}

// TestCancellationParallel exercises the cancel path under real
// parallelism: whatever comes back must be fully aggregated cells in
// canonical order.
func TestCancellationParallel(t *testing.T) {
	g := tinyGrid()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	opts := Options{
		Workers: 4,
		Progress: func(p Progress) {
			if p.Cell != nil {
				once.Do(cancel)
			}
		},
	}
	res, err := Run(ctx, g, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	last := -1
	for _, c := range res.Cells {
		if c.Index <= last {
			t.Fatalf("cells out of order: %d after %d", c.Index, last)
		}
		last = c.Index
		if c.EnergyJ.N != g.Replicas {
			t.Fatalf("cell %d aggregated %d replicas, want %d", c.Index, c.EnergyJ.N, g.Replicas)
		}
	}
}

// TestProgressCarriesCells: the event of the run that completes a cell
// carries that cell's aggregate, every other event carries none, and each
// carried aggregate is a copy equal to the Result's cell.
func TestProgressCarriesCells(t *testing.T) {
	g := tinyGrid()
	runs := 0
	carried := map[int]*CellResult{}
	res, err := Run(context.Background(), g, Options{
		Workers: 3,
		Progress: func(p Progress) {
			runs++
			if p.Cell == nil {
				return
			}
			if p.Cell.Index != p.CellIndex || carried[p.CellIndex] != nil || p.CellsDone != len(carried)+1 {
				t.Errorf("cell %d carried as cell %d with %d done before, %d counted",
					p.CellIndex, p.Cell.Index, len(carried), p.CellsDone)
			}
			carried[p.CellIndex] = p.Cell
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs != len(res.Cells)*g.Replicas || len(carried) != len(res.Cells) {
		t.Fatalf("%d events carrying %d cells, want %d carrying %d",
			runs, len(carried), len(res.Cells)*g.Replicas, len(res.Cells))
	}
	for i := range res.Cells {
		c := carried[res.Cells[i].Index]
		if c == nil || !reflect.DeepEqual(*c, res.Cells[i]) {
			t.Fatalf("cell %d: carried %+v, result holds %+v", i, c, res.Cells[i])
		}
		c.EnergyJ.Mean = -1
		if res.Cells[i].EnergyJ.Mean == -1 {
			t.Fatalf("cell %d: the event's aggregate aliases the Result's", i)
		}
	}
}

func TestCSVShape(t *testing.T) {
	g := tinyGrid()
	res, err := Run(context.Background(), g, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+4 {
		t.Fatalf("csv lines = %d, want header + 4 cells", len(lines))
	}
	header := strings.Split(lines[0], ",")
	for _, line := range lines[1:] {
		if got := len(strings.Split(line, ",")); got != len(header) {
			t.Fatalf("row width %d != header width %d", got, len(header))
		}
	}
	if !strings.Contains(lines[0], "policy") || !strings.Contains(lines[0], "energy_j_mean") {
		t.Fatalf("header missing expected columns: %s", lines[0])
	}
	// Table rendering stays non-empty and labelled.
	if s := res.Table(); !strings.Contains(s, "tiny") || !strings.Contains(s, "4/4 cells") {
		t.Fatalf("table rendering: %q", s)
	}
}

func TestSingleReplicaCollapsesCI(t *testing.T) {
	g := Grid{
		Base: tinyBase(),
		Axes: []Axis{{Field: "policy", Values: []any{"bfd"}}},
	}
	res, err := Run(context.Background(), g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cells[0]
	if c.EnergyJ.N != 1 || c.EnergyJ.CI95 != 0 || c.EnergyJ.StdDev != 0 {
		t.Fatalf("single replica agg = %+v, want collapsed spread", c.EnergyJ)
	}
	if c.EnergyJ.Mean <= 0 {
		t.Fatal("energy mean should be positive")
	}
}

// TestReplicaSeedSkipsZero pins the replica seed derivation: arithmetic in
// r and stride, with the reserved seed 0 skipped — 0 means "default seed
// 1" to the façade, so landing on it aliased a replica onto the default
// traces.
func TestReplicaSeedSkipsZero(t *testing.T) {
	cases := []struct {
		base, stride int64
		want         []int64
	}{
		{1, 1, []int64{1, 2, 3, 4}},       // all-positive: untouched
		{-1, 1, []int64{-1, 1, 2, 3}},     // crosses 0 upward
		{1, -1, []int64{1, -1, -2, -3}},   // the aliasing shape: crosses 0 downward
		{-4, 2, []int64{-4, -2, 2, 4}},    // multiple-of-stride crossing
		{-3, 2, []int64{-3, -1, 1, 3}},    // crossing between seeds: no skip needed
		{5, -3, []int64{5, 2, -1, -4}},    // never hits 0
		{-2, -1, []int64{-2, -3, -4, -5}}, // moves away from 0
	}
	for _, c := range cases {
		for r, want := range c.want {
			if got := replicaSeed(c.base, r, c.stride); got != want {
				t.Errorf("replicaSeed(%d, %d, %d) = %d, want %d", c.base, r, c.stride, got, want)
			}
		}
	}
	// Property: for any nonzero base and stride the sequence never hits 0
	// and never repeats.
	for base := int64(-6); base <= 6; base++ {
		if base == 0 {
			continue
		}
		for stride := int64(-4); stride <= 4; stride++ {
			if stride == 0 {
				continue
			}
			seen := map[int64]bool{}
			for r := 0; r < 10; r++ {
				s := replicaSeed(base, r, stride)
				if s == 0 {
					t.Fatalf("replicaSeed(%d, %d, %d) = 0", base, r, stride)
				}
				if seen[s] {
					t.Fatalf("replicaSeed(%d, ·, %d) repeats %d", base, stride, s)
				}
				seen[s] = true
			}
		}
	}
}

// TestSeedAliasingRegression is the bug this PR fixes: with base seed 1
// and stride -1, replica 1 used to derive seed 0, which GenerateTraces
// maps to the default seed 1 — two replicas running byte-identical traces
// and a stddev/95%-CI of exactly 0. The fix must keep the replicas on
// distinct traces, visible as nonzero spread in the aggregate.
func TestSeedAliasingRegression(t *testing.T) {
	g := Grid{
		Name:       "alias-regression",
		Base:       tinyBase(),
		Axes:       []Axis{{Field: "policy", Values: []any{"bfd"}}},
		Replicas:   2,
		SeedStride: -1,
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	s0 := cells[0].Replica(0, g.SeedStride).Workload.Seed
	s1 := cells[0].Replica(1, g.SeedStride).Workload.Seed
	if s0 != 1 || s1 != -1 {
		t.Fatalf("replica seeds = %d, %d; want 1, -1 (0 skipped)", s0, s1)
	}
	res, err := Run(context.Background(), g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cells[0]
	if c.EnergyJ.N != 2 {
		t.Fatalf("aggregated %d replicas, want 2", c.EnergyJ.N)
	}
	if c.EnergyJ.StdDev == 0 && c.MeanActive.StdDev == 0 && c.MeanPowerW.StdDev == 0 {
		t.Fatal("replicas produced identical aggregates: seed aliasing is back")
	}
}

// TestReplicaSeedErrGuards: the validator's belt-and-braces check fires on
// a derivation that collides — e.g. a hand-built stride of 0, which the
// grid defaults normally rule out.
func TestReplicaSeedErrGuards(t *testing.T) {
	c := Cell{Scenario: dcsim.New(dcsim.WithSeed(5))}
	if err := replicaSeedErr(c, 3, 0); err == nil || !strings.Contains(err.Error(), "identical traces") {
		t.Errorf("stride-0 collision err = %v, want a collision error", err)
	}
	if err := replicaSeedErr(c, 3, 2); err != nil {
		t.Errorf("healthy sequence rejected: %v", err)
	}
}

// TestValidateRejectsReplicasOverSeedInvariantWorkload: seed replicas
// only vary the seed, and a recorded workload ignores it — N identical
// replicas would report a bogus zero-width CI, so the grid must not
// validate.
func TestValidateRejectsReplicasOverSeedInvariantWorkload(t *testing.T) {
	dir := t.TempDir()
	ds, err := dcsim.GenerateTraces(dcsim.Workload{VMs: 6, Groups: 2, Hours: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := dcsim.WriteTraceDir(dir, ds, 0); err != nil {
		t.Fatal(err)
	}
	base := tinyBase()
	base.Workload.Kind = "trace-dir"
	base.Workload.Path = dir
	g := Grid{
		Base:     base,
		Axes:     []Axis{{Field: "policy", Values: []any{"bfd"}}},
		Replicas: 3,
	}
	err = g.Validate()
	if err == nil || !strings.Contains(err.Error(), "ignores the seed") {
		t.Fatalf("Validate = %v, want rejection of replicas over a recorded workload", err)
	}
	// One replica is fine.
	g.Replicas = 1
	if err := g.Validate(); err != nil {
		t.Fatalf("single-replica recorded grid rejected: %v", err)
	}
}
