package experiments_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/pkg/dcsim/experiments"
	"repro/pkg/dcsim/model"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// TestArtifactsMatchPreRefactorGoldens pins every Setup-2 artifact, plus
// fig1 and tablei, at quick scale to byte-exact outputs captured before a
// refactor. fig1, tablei and tableiia predate the model-contract inversion —
// ServerSpec, Request/Placement, the component interfaces, and RunOptions
// moving into pkg/dcsim/model; extended and a4 predate routing their runs
// through the façade's registry names; the rest predate running Table II,
// Fig. 6 and the extended table through dcsim.Run. No refactor may be
// visible in any artifact: same traces, same placements, same arithmetic,
// same rendering.
//
// Each artifact renders at one sweep worker and at four, and both must
// print the golden's bytes: the grids fan out on the sweep engine, whose
// results do not depend on the worker count.
//
// To regenerate after an intentional behavior change:
//
//	go test ./pkg/dcsim/experiments -run Golden -update
func TestArtifactsMatchPreRefactorGoldens(t *testing.T) {
	for _, name := range []string{
		"fig1", "tablei", "tableiia", "tableiib", "fig6", "extended",
		"a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8",
	} {
		t.Run(name, func(t *testing.T) { checkGolden(t, name, "quick", experiments.Quick()) })
	}
}

// TestFullScaleArtifactsMatchGoldens pins Table II(a), Table II(b), Fig. 6
// and the extended table at the paper's scale, seed 1: the numbers README
// quotes. It checks as TestArtifactsMatchPreRefactorGoldens does.
func TestFullScaleArtifactsMatchGoldens(t *testing.T) {
	for _, name := range []string{"tableiia", "tableiib", "fig6", "extended"} {
		t.Run(name, func(t *testing.T) { checkGolden(t, name, "full", experiments.Full()) })
	}
}

// checkGolden holds one artifact, rendered at one and at four sweep
// workers, to testdata/NAME.SCALE.golden.
func checkGolden(t *testing.T, name, scale string, o model.RunOptions) {
	path := filepath.Join("testdata", name+"."+scale+".golden")
	got := render(t, name, o, 1)
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
	if got4 := render(t, name, o, 4); got4 != got {
		t.Fatalf("%s at 4 workers differs from 1 worker\n--- 4 workers ---\n%s\n--- 1 worker ---\n%s",
			name, got4, got)
	}
}

// render runs one artifact at the given sweep parallelism.
func render(t *testing.T, name string, o model.RunOptions, workers int) string {
	t.Helper()
	o.Workers = workers
	r, err := experiments.RunOptions(name, o)
	if err != nil {
		t.Fatalf("%s at %d workers: %v", name, workers, err)
	}
	return r.String()
}
