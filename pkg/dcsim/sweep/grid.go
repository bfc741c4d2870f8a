// Package sweep turns a JSON-serializable Grid — a base Scenario plus axes
// over policies, governors, predictors, servers, workload scale, and
// scenario params — into the cross-product of dcsim Scenarios, executes
// them on a bounded worker pool, and merges the results into per-cell
// aggregates (mean, stddev, 95% CI across seed replicas).
//
// Scenarios are immutable values and runs are deterministic, so fan-out is
// safe and merge is well-defined: the aggregate Result is byte-identical
// regardless of worker count, and cancelling the context returns the cells
// that completed, in grid order. Each cell-replica executes through the
// Executor seam — in-process via LocalExecutor by default, or across
// machines via the sweep/fleet executor, which ships CellRuns to HTTP
// workers over the sweep/remote protocol and streams per-replica Results
// back into the same collector,
// preserving the byte-identical aggregate wherever runs execute.
package sweep

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/httpjson"
	"repro/pkg/dcsim"
)

// Axis is one grid dimension: a scenario field name and the values it
// sweeps over. Fields take JSON-scalar values; which Go type a value must
// carry depends on the field (see Apply). Param axes are spelled
// "param:<name>" and sweep the scenario's Params map.
type Axis struct {
	Field  string `json:"field"`
	Values []any  `json:"values"`
}

// Grid is the JSON-serializable sweep specification: every combination of
// axis values applied to Base, each run Replicas times at consecutive
// seeds (Base seed, Base seed + SeedStride, ...).
type Grid struct {
	// Name labels the sweep in reports.
	Name string `json:"name,omitempty"`
	// Base is the scenario every cell starts from; unset fields take the
	// usual dcsim defaults.
	Base dcsim.Scenario `json:"base"`
	// Axes are the sweep dimensions, slowest-varying first. The
	// cross-product order (last axis fastest) is the canonical cell order
	// of every report.
	Axes []Axis `json:"axes"`
	// Replicas is the number of seed replicas per cell (default 1).
	Replicas int `json:"replicas,omitempty"`
	// SeedStride separates consecutive replica seeds (default 1).
	SeedStride int64 `json:"seed_stride,omitempty"`
}

// Assignment is one axis value applied to a cell's scenario.
type Assignment struct {
	Field string `json:"field"`
	Value any    `json:"value"`
}

// Cell is one point of the grid cross-product.
type Cell struct {
	// Index is the cell's position in canonical (row-major) grid order.
	Index int `json:"index"`
	// Assign lists the axis values this cell applies, in axis order.
	Assign []Assignment `json:"assign,omitempty"`
	// Scenario is the fully applied, normalized scenario of replica 0.
	Scenario dcsim.Scenario `json:"scenario"`
}

// Name renders the cell's assignments as "field=value, ...", the label
// reports use. Param fields drop their "param:" prefix.
func (c Cell) Name() string {
	if len(c.Assign) == 0 {
		return "base"
	}
	parts := make([]string, len(c.Assign))
	for i, a := range c.Assign {
		parts[i] = fmt.Sprintf("%s=%s", strings.TrimPrefix(a.Field, "param:"), formatValue(a.Value))
	}
	return strings.Join(parts, " ")
}

// Replica returns the scenario of the r-th seed replica: the cell scenario
// with the workload seed advanced by r seed strides, skipping seed 0.
func (c Cell) Replica(r int, stride int64) dcsim.Scenario {
	sc := c.Scenario
	sc.Workload.Seed = replicaSeed(sc.Workload.Seed, r, stride)
	return sc
}

// replicaSeed derives the r-th replica seed: base advanced by r strides,
// with the value 0 skipped. Seed 0 means "unset → default seed 1" to the
// façade (see dcsim.Workload.Seed), so a replica landing on it would
// silently replay the default-seed traces instead of its own — two
// replicas of one cell running byte-identical traces and deflating every
// stddev/CI. Skipping keeps the sequence strictly monotone in r, so all
// replica seeds stay distinct.
func replicaSeed(base int64, r int, stride int64) int64 {
	s := base + int64(r)*stride
	if stride == 0 {
		return s
	}
	// The progression base, base+stride, … hits 0 exactly when base is a
	// multiple of stride with the crossing at r0 ≥ 0; every replica at or
	// past the crossing shifts one further stride.
	if base%stride == 0 {
		if r0 := -base / stride; r0 >= 0 && int64(r) >= r0 {
			s += stride
		}
	}
	return s
}

// withDefaults fills the grid's zero values.
func (g Grid) withDefaults() Grid {
	if g.Replicas == 0 {
		g.Replicas = 1
	}
	if g.SeedStride == 0 {
		g.SeedStride = 1
	}
	return g
}

// Normalized returns the grid with its zero-valued Replicas and
// SeedStride filled in — the defaults Run applies and DecodeGrid bakes
// into decoded grids — so grids built in code and grids read from JSON
// compare (and marshal) identically.
func (g Grid) Normalized() Grid { return g.withDefaults() }

// Validate reports structural problems: empty axes, bad replica counts,
// duplicate fields, a grid too large to expand, or a value no scenario
// field accepts. Every expanded cell scenario is checked the way Run would
// check it (structure, registry names, params), so a typo anywhere in the
// grid fails before any run.
func (g Grid) Validate() error {
	g = g.withDefaults()
	if g.Replicas < 1 {
		return fmt.Errorf("sweep: replicas must be positive, got %d", g.Replicas)
	}
	seen := map[string]bool{}
	for _, ax := range g.Axes {
		if ax.Field == "" {
			return fmt.Errorf("sweep: axis with empty field")
		}
		if seen[ax.Field] {
			return fmt.Errorf("sweep: duplicate axis %q", ax.Field)
		}
		seen[ax.Field] = true
		if len(ax.Values) == 0 {
			return fmt.Errorf("sweep: axis %q has no values", ax.Field)
		}
	}
	cells, err := g.Cells()
	if err != nil {
		return err
	}
	for _, c := range cells {
		if err := dcsim.CheckScenario(c.Scenario); err != nil {
			return fmt.Errorf("sweep: cell %d (%s): %w", c.Index, c.Name(), err)
		}
		if err := replicaSeedErr(c, g.Replicas, g.SeedStride); err != nil {
			return err
		}
		// Seed replicas only vary the seed; over a seed-invariant source
		// (recorded traces) every replica would run identical traces and
		// the aggregate would report a bogus zero stddev / zero-width CI.
		if g.Replicas > 1 && dcsim.SeedInvariantWorkload(c.Scenario.Workload.Kind) {
			return fmt.Errorf("sweep: cell %d (%s): workload kind %q ignores the seed, so %d replicas would run identical traces; use replicas 1",
				c.Index, c.Name(), c.Scenario.Workload.Kind, g.Replicas)
		}
	}
	return nil
}

// replicaSeedErr rejects a cell whose replica seed sequence lands on the
// reserved seed 0 or collides with itself — belt and braces over
// replicaSeed's skip, so any future derivation change that re-introduces
// seed aliasing fails every grid loudly instead of silently running
// byte-identical replicas and deflating stddev/CI.
func replicaSeedErr(c Cell, replicas int, stride int64) error {
	seen := make(map[int64]bool, replicas)
	for r := 0; r < replicas; r++ {
		s := replicaSeed(c.Scenario.Workload.Seed, r, stride)
		if s == 0 {
			return fmt.Errorf("sweep: cell %d (%s): replica %d derives the reserved seed 0 (base %d, stride %d)",
				c.Index, c.Name(), r, c.Scenario.Workload.Seed, stride)
		}
		if seen[s] {
			return fmt.Errorf("sweep: cell %d (%s): replica %d repeats seed %d (base %d, stride %d) — replicas would run identical traces",
				c.Index, c.Name(), r, s, c.Scenario.Workload.Seed, stride)
		}
		seen[s] = true
	}
	return nil
}

// maxRuns bounds a grid's expansion: both its runs (cells × replicas) and
// its axis assignments (cells × axes, which size the expanded cells'
// memory). Cells rejects a larger grid before it allocates anything, so a
// small document can neither overflow the cell count nor exhaust memory;
// the largest example grid runs 30.
const maxRuns = 1 << 20

var errTooLarge = fmt.Errorf("sweep: grid expands to more than %d runs or axis assignments", maxRuns)

// Cells expands the cross-product in canonical order: the first axis varies
// slowest, the last fastest, exactly like nested loops over the axes.
func (g Grid) Cells() ([]Cell, error) {
	g = g.withDefaults()
	// Every product is checked against maxRuns before it is formed, so
	// none can overflow.
	total := 1
	for _, ax := range g.Axes {
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("sweep: axis %q has no values", ax.Field)
		}
		if len(ax.Values) > maxRuns/total {
			return nil, errTooLarge
		}
		total *= len(ax.Values)
	}
	if g.Replicas > maxRuns/total || len(g.Axes) > maxRuns/total {
		return nil, errTooLarge
	}
	cells := make([]Cell, 0, total)
	idx := make([]int, len(g.Axes))
	for i := 0; i < total; i++ {
		// Apply the axes to the sparse base and normalize once at the
		// end, so a policy axis over a governor-less base re-pairs the
		// governor per cell exactly like a sparse scenario file would.
		sc := g.Base
		assign := make([]Assignment, len(g.Axes))
		for a, ax := range g.Axes {
			v := ax.Values[idx[a]]
			if err := Apply(&sc, ax.Field, v); err != nil {
				return nil, fmt.Errorf("sweep: cell %d: %w", i, err)
			}
			assign[a] = Assignment{Field: ax.Field, Value: normalizeValue(v)}
		}
		sc = sc.Normalized()
		cells = append(cells, Cell{Index: i, Assign: assign, Scenario: sc})
		// Odometer increment, last axis fastest.
		for a := len(idx) - 1; a >= 0; a-- {
			idx[a]++
			if idx[a] < len(g.Axes[a].Values) {
				break
			}
			idx[a] = 0
		}
	}
	return cells, nil
}

// Runs counts the grid's total simulation runs (cells × replicas).
func (g Grid) Runs() (int, error) {
	g = g.withDefaults()
	cells, err := g.Cells()
	if err != nil {
		return 0, err
	}
	return len(cells) * g.Replicas, nil
}

// Apply sets one scenario field by its grid-axis name: the JSON name of
// any scalar Scenario field, or of any scalar Workload field alone or
// after "workload." ("seed", "workload.seed"). String fields take
// strings, numeric fields JSON numbers (integral, and within the field's
// width, where the field is an integer), boolean fields bools;
// "param:<name>" writes the params map and "workload.opt:<key>" the
// workload's kind-scoped options map, both copy-on-write so cells sharing
// a base never alias.
func Apply(sc *dcsim.Scenario, field string, v any) error {
	if name, ok := strings.CutPrefix(field, "param:"); ok {
		f, err := wantFloat(field, v)
		if err != nil {
			return err
		}
		if name == "" {
			return fmt.Errorf("sweep: empty param name in axis %q", field)
		}
		sc.SetParam(name, f)
		return nil
	}
	if key, ok := strings.CutPrefix(field, "workload.opt:"); ok {
		s, err := wantString(field, v)
		if err != nil {
			return err
		}
		if key == "" {
			return fmt.Errorf("sweep: empty workload option key in axis %q", field)
		}
		sc.Workload.SetOption(key, s)
		return nil
	}
	index, ok := axes[field]
	if !ok {
		return fmt.Errorf("sweep: unknown axis field %q (scenario fields, param:<name>, or workload.opt:<key>)", field)
	}
	fv := reflect.ValueOf(sc).Elem().FieldByIndex(index)
	switch fv.Kind() {
	case reflect.String:
		s, err := wantString(field, v)
		if err != nil {
			return err
		}
		fv.SetString(s)
	case reflect.Float64:
		f, err := wantFloat(field, v)
		if err != nil {
			return err
		}
		fv.SetFloat(f)
	case reflect.Bool:
		b, err := wantBool(field, v)
		if err != nil {
			return err
		}
		fv.SetBool(b)
	default: // reflect.Int, reflect.Int64
		n, err := wantInt(field, v, fv)
		if err != nil {
			return err
		}
		fv.SetInt(n)
	}
	return nil
}

// axes maps each axis name to the index path of the scalar field it sets
// in a dcsim.Scenario, read once from the json tags: every string, int,
// int64, float64 or bool field of the Scenario by its JSON name, and of
// its Workload by its JSON name alone or after "workload.".
var axes = func() map[string][]int {
	m := map[string][]int{}
	st := reflect.TypeFor[dcsim.Scenario]()
	for i := range st.NumField() {
		f := st.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if f.Type == reflect.TypeFor[dcsim.Workload]() {
			for j := range f.Type.NumField() {
				if w := f.Type.Field(j); scalar(w.Type) {
					wname, _, _ := strings.Cut(w.Tag.Get("json"), ",")
					m[wname] = []int{i, j}
					m[name+"."+wname] = []int{i, j}
				}
			}
		} else if scalar(f.Type) {
			m[name] = []int{i}
		}
	}
	return m
}()

// scalar reports whether an axis can set a field of type t.
func scalar(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.String, reflect.Int, reflect.Int64, reflect.Float64, reflect.Bool:
		return true
	}
	return false
}

func wantString(field string, v any) (string, error) {
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("sweep: axis %q wants a string, got %v (%T)", field, v, v)
	}
	return s, nil
}

func wantFloat(field string, v any) (float64, error) {
	switch x := v.(type) {
	case float64:
		return x, nil
	case int:
		return float64(x), nil
	case int64:
		return float64(x), nil
	}
	return 0, fmt.Errorf("sweep: axis %q wants a number, got %v (%T)", field, v, v)
}

// wantInt reads an integral value that fits fv, the field it sets.
func wantInt(field string, v any, fv reflect.Value) (int64, error) {
	f, err := wantFloat(field, v)
	if err != nil {
		return 0, err
	}
	if f != math.Trunc(f) {
		return 0, fmt.Errorf("sweep: axis %q wants an integer, got %v", field, f)
	}
	// NaN failed the test above and ±Inf fails this one. The upper bound
	// is exclusive because float64(MaxInt64) rounds up to -MinInt64,
	// which int64 cannot hold; OverflowInt then checks the field's width.
	if f < math.MinInt64 || f >= -math.MinInt64 || fv.OverflowInt(int64(f)) {
		return 0, fmt.Errorf("sweep: axis %q value %v is out of range", field, f)
	}
	return int64(f), nil
}

func wantBool(field string, v any) (bool, error) {
	b, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("sweep: axis %q wants a bool, got %v (%T)", field, v, v)
	}
	return b, nil
}

// normalizeValue folds Go integer literals (from programmatically built
// grids) into float64, the type JSON decoding produces, so a grid behaves
// identically whether it came from a file or from code.
func normalizeValue(v any) any {
	switch x := v.(type) {
	case int:
		return float64(x)
	case int64:
		return float64(x)
	}
	return v
}

// formatValue renders an axis value for labels: trimmed floats, bare
// strings and bools.
func formatValue(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case bool:
		return strconv.FormatBool(x)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	}
	return fmt.Sprint(v)
}

// DecodeGrid decodes a JSON grid, rejecting unknown fields and anything
// after the grid's object but white space, without validating it — for
// callers that amend the grid (e.g. the sweep command's -workload/-tracedir
// overrides) before validating themselves. Most callers want ParseGrid.
func DecodeGrid(data []byte) (Grid, error) {
	var g Grid
	if err := httpjson.DecodeStrict(bytes.NewReader(data), &g); err != nil {
		return Grid{}, fmt.Errorf("sweep: parse grid: %w", err)
	}
	return g.withDefaults(), nil
}

// ParseGrid decodes a JSON grid as DecodeGrid does and validates it.
func ParseGrid(data []byte) (Grid, error) {
	g, err := DecodeGrid(data)
	if err != nil {
		return Grid{}, err
	}
	if err := g.Validate(); err != nil {
		return Grid{}, err
	}
	return g, nil
}
