package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with DCSIM_TEST_MAIN set, so a test can drive the real CLI.
func TestMain(m *testing.M) {
	if os.Getenv("DCSIM_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// failCLI runs the command with args, requires exit status 1, and
// returns what it printed.
func failCLI(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DCSIM_TEST_MAIN=1")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("dcsim %v: %v, want exit status 1; output:\n%s", args, err, &out)
	}
	return out.String()
}

// TestErrorsCarryOnePrefix: a failing command prints its error once, with
// exactly one "dcsim: " in front, whether the error comes from the façade
// (which already starts it with "dcsim: ") or from the command's own flag
// checks (which do not).
func TestErrorsCarryOnePrefix(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-policy", "nosuch"}, `dcsim: unknown policy "nosuch" (have `},
		{[]string{"-tracedir", "a", "-objstore", "http://localhost/b"}, "dcsim: -tracedir and -objstore are mutually exclusive"},
	}
	for _, c := range cases {
		out := failCLI(t, c.args...)
		if !strings.HasPrefix(out, c.want) || strings.Count(out, "dcsim: ") != 1 || strings.Count(out, "\n") != 1 {
			t.Errorf("dcsim %v printed %q, want one line starting %q with one \"dcsim: \"", c.args, out, c.want)
		}
	}
}

// TestRecordingFlags: the run and sweep commands apply one rule to the
// recorded-trace flags. A -tracedir path selects the trace-dir kind, so
// the workload is read from that directory (here, one without a
// manifest), and -tracedir together with -objstore is rejected.
func TestRecordingFlags(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "recording")
	grid := filepath.Join(t.TempDir(), "grid.json")
	spec := `{"base":{"workload":{"vms":4,"groups":1,"hours":1},"max_servers":4},"axes":[{"field":"policy","values":["bfd"]}]}`
	if err := os.WriteFile(grid, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	noManifest := "tracedir: open " + filepath.Join(dir, "manifest.json") + ": no such file or directory"
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-tracedir", dir}, noManifest},
		{[]string{"sweep", "-grid", grid, "-tracedir", dir}, noManifest},
		{[]string{"-tracedir", dir, "-objstore", "http://localhost/b"},
			"dcsim: -tracedir and -objstore are mutually exclusive (one recording location)\n"},
		{[]string{"sweep", "-grid", grid, "-tracedir", dir, "-objstore", "http://localhost/b"},
			"dcsim: sweep: -tracedir and -objstore are mutually exclusive (one recording location)\n"},
	}
	for _, c := range cases {
		if out := failCLI(t, c.args...); !strings.HasPrefix(out, "dcsim: ") || !strings.Contains(out, c.want) {
			t.Errorf("dcsim %v printed %q, want %q", c.args, out, c.want)
		}
	}
}
