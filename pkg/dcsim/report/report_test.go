package report

import (
	"strings"
	"testing"
	"time"

	"repro/pkg/dcsim/model"
)

func TestTableRendering(t *testing.T) {
	tab := NewTable("name", "value")
	tab.AddRow("alpha", "1")
	tab.AddRow("much-longer-name", "2")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want header+rule+2 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Fatalf("rule = %q", lines[1])
	}
	// Columns align: "value" column starts at the same offset everywhere.
	idx := strings.Index(lines[0], "value")
	if !strings.HasPrefix(lines[2][idx:], "1") && !strings.HasPrefix(lines[3][idx:], "2") {
		t.Fatalf("misaligned columns:\n%s", out)
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tab := NewTable("a", "b", "c")
	tab.AddRow("only")
	if !strings.Contains(tab.String(), "only") {
		t.Fatal("short row lost")
	}
}

func TestSparkline(t *testing.T) {
	s := model.SeriesFromSamples(time.Second, []float64{0, 0.5, 1})
	sl := Sparkline(s, 10, 0, 1)
	if len([]rune(sl)) != 3 {
		t.Fatalf("sparkline runes = %d, want 3", len([]rune(sl)))
	}
	runes := []rune(sl)
	if runes[0] >= runes[2] {
		t.Fatalf("sparkline should ascend: %q", sl)
	}
	// Downsampling path: longer series squeezed to width.
	long := model.NewSeries(time.Second, 100)
	for i := 0; i < 100; i++ {
		long.Append(float64(i))
	}
	sl2 := Sparkline(long, 10, 0, 100)
	if len([]rune(sl2)) > 10 {
		t.Fatalf("sparkline too wide: %d", len([]rune(sl2)))
	}
}

func TestSparklineEdgeCases(t *testing.T) {
	s := model.SeriesFromSamples(time.Second, []float64{1})
	if Sparkline(s, 0, 0, 1) != "" {
		t.Fatal("zero width should render empty")
	}
	empty := model.NewSeries(time.Second, 0)
	if Sparkline(empty, 10, 0, 1) != "" {
		t.Fatal("empty series should render empty")
	}
	if Sparkline(s, 10, 1, 1) != "" {
		t.Fatal("degenerate range should render empty")
	}
	// Out-of-range values clamp rather than panic.
	wild := model.SeriesFromSamples(time.Second, []float64{-5, 50})
	if len([]rune(Sparkline(wild, 10, 0, 1))) != 2 {
		t.Fatal("clamped sparkline wrong length")
	}
}

func TestBar(t *testing.T) {
	if got := Bar(0.5, 10); len([]rune(got)) != 10 {
		t.Fatalf("bar width = %d", len([]rune(got)))
	}
	if got := Bar(-1, 4); got != "····" {
		t.Fatalf("negative frac = %q", got)
	}
	if got := Bar(2, 4); got != "████" {
		t.Fatalf("overflow frac = %q", got)
	}
}
