// Package report renders experiment results as plain-text tables and
// terminal "figures" (sparklines and bar charts), so every table and figure
// of the paper can be regenerated on a terminal.
package report

import (
	"fmt"
	"strings"

	"repro/pkg/dcsim/model"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.headers)
	rule := make([]string, len(t.headers))
	for i, w := range widths {
		rule[i] = strings.Repeat("-", w)
	}
	line(rule)
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a series as a fixed-width unicode sparkline, scaling
// values into [lo, hi]. Useful for eyeballing the utilization figures.
func Sparkline(s *model.Series, width int, lo, hi float64) string {
	if width <= 0 || s.Len() == 0 || hi <= lo {
		return ""
	}
	ds := s
	if s.Len() > width {
		ds = s.Downsample((s.Len() + width - 1) / width)
	}
	var b strings.Builder
	for i := 0; i < ds.Len(); i++ {
		v := (ds.At(i) - lo) / (hi - lo)
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		idx := int(v * float64(len(sparkRunes)-1))
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// Bar renders a horizontal bar of the given fraction (0..1) and width.
func Bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	return strings.Repeat("█", n) + strings.Repeat("·", width-n)
}
