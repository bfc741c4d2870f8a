package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzDecodeGrid feeds arbitrary bytes through the grid decoder and every
// expansion of what it decodes: DecodeGrid, Validate, Runs and Cells. No
// input may panic them, and a grid that validates expands to exactly
// Runs() runs, never more than maxRuns.
func FuzzDecodeGrid(f *testing.F) {
	examples, err := filepath.Glob(filepath.Join("..", "..", "..", "examples", "grids", "*.json"))
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example grids found: %v", err)
	}
	for _, path := range examples {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Two small grids that expand past maxRuns: 20 param axes of 10 values
	// each (10^20 cells, which overflows int) and a single cell run
	// 1<<20+1 times.
	axes := make([]string, 20)
	for i := range axes {
		axes[i] = fmt.Sprintf(`{"field":"param:p%d","values":[0,1,2,3,4,5,6,7,8,9]}`, i)
	}
	f.Add([]byte(`{"base":{"workload":{"vms":6}},"axes":[` + strings.Join(axes, ",") + `]}`))
	f.Add([]byte(`{"base":{"workload":{"vms":6}},"axes":[{"field":"policy","values":["bfd"]}],"replicas":1048577}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeGrid(data)
		if err != nil {
			return
		}
		verr := g.Validate()
		runs, runsErr := g.Runs()
		cells, cellsErr := g.Cells()
		if verr != nil {
			return
		}
		if runsErr != nil || cellsErr != nil {
			t.Fatalf("grid validates, yet Runs() = %v and Cells() = %v", runsErr, cellsErr)
		}
		if len(cells)*g.Replicas != runs || runs > maxRuns {
			t.Fatalf("%d cells × %d replicas, Runs() = %d, limit %d", len(cells), g.Replicas, runs, maxRuns)
		}
	})
}
