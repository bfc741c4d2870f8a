package experiments_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/pkg/dcsim/experiments"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// TestArtifactsMatchPreRefactorGoldens pins fig1, tablei, tableiia,
// extended and a4 (quick scale) to byte-exact outputs captured before a
// refactor. fig1, tablei and tableiia predate the model-contract inversion —
// ServerSpec, Request/Placement, the component interfaces, and RunOptions
// moving into pkg/dcsim/model; extended and a4 predate routing their runs
// through the façade's registry names. Neither refactor may be visible in
// any artifact: same traces, same placements, same arithmetic, same
// rendering.
//
// To regenerate after an intentional behavior change:
//
//	go test ./pkg/dcsim/experiments -run Golden -update
func TestArtifactsMatchPreRefactorGoldens(t *testing.T) {
	for _, name := range []string{"fig1", "tablei", "tableiia", "extended", "a4"} {
		t.Run(name, func(t *testing.T) {
			r, err := experiments.Run(name, true)
			if err != nil {
				t.Fatal(err)
			}
			got := r.String()
			path := filepath.Join("testdata", name+".quick.golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("%s output diverged from pre-refactor golden %s\n--- got ---\n%s\n--- want ---\n%s",
					name, path, got, want)
			}
		})
	}
}
