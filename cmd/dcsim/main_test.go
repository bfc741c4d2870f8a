package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/pkg/dcsim/sweep/fleet"
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
// returns what it printed. A command still running after a minute is
// killed, which fails the test: a check that should have stopped it let
// it go on to serve or sweep.
func failCLI(t *testing.T, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
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

// TestDispatchFlagChecks: "dcsim sweep" and "dcsim serve" share their
// dispatch flags and reject the same misuses with the same words, each
// under its own prefix — flags that need a target they do not have, and
// counts out of range — before they listen, dial or sweep anything.
func TestDispatchFlagChecks(t *testing.T) {
	type check struct {
		args []string
		want string
	}
	shared := func(fleetFlag ...string) []check {
		return []check{
			{append([]string{"-remote", "http://127.0.0.1:1"}, fleetFlag...), "-remote and -fleet are mutually exclusive (a static list or an elastic fleet, not both)"},
			{[]string{"-local", "2"}, "-local only applies with -remote or -fleet (local runs are the default)"},
			{[]string{"-inflight", "2"}, "-inflight only applies with -remote or -fleet (local runs are the default)"},
			{[]string{"-no-preflight"}, "-no-preflight only applies with -remote"},
			{append([]string{"-no-preflight"}, fleetFlag...), "-no-preflight only applies with -remote"},
			{[]string{"-fleet-miss", "2"}, "-fleet-miss only applies with -fleet"},
			{[]string{"-workers", "-1"}, "-workers must be at least 0, got -1"},
			{append([]string{"-fleet-miss", "0"}, fleetFlag...), "-fleet-miss must be at least 1, got 0"},
		}
	}
	cases := map[string][]check{
		"sweep": append(shared("-fleet", "127.0.0.1:0"),
			check{[]string{"-fleet-min", "2"}, "-fleet-min only applies with -fleet"},
			check{[]string{"-fleet", "127.0.0.1:0", "-fleet-min", "-1"}, "-fleet-min must be at least 0, got -1"},
		),
		"serve": append(shared("-fleet"),
			check{[]string{"-queue", "0"}, "-queue must be at least 1, got 0"},
			check{[]string{"-queue", "-1"}, "-queue must be at least 1, got -1"},
			check{[]string{"-jobs", "0"}, "-jobs must be at least 1, got 0"},
			check{[]string{"-jobs", "-2"}, "-jobs must be at least 1, got -2"},
		),
	}
	for cmd, checks := range cases {
		for _, c := range checks {
			args := append([]string{cmd}, c.args...)
			if cmd == "serve" {
				// Should a check let it through, serve binds a free
				// loopback port, not :8080.
				args = append(args, "-listen", "127.0.0.1:0")
			}
			want := "dcsim: " + cmd + ": " + c.want + "\n"
			if out := failCLI(t, args...); out != want {
				t.Errorf("dcsim %v printed %q, want %q", args, out, want)
			}
		}
	}
}

// TestFanOut pins the one fan-out rule both commands apply when -workers
// is 0, and that a set -workers overrides it.
func TestFanOut(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	static, err := fleet.NewStaticRegistry([]string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"})
	if err != nil {
		t.Fatal(err)
	}
	defer static.Close()
	empty := fleet.NewRegistry(fleet.Config{})
	defer empty.Close()
	joined := fleet.NewRegistry(fleet.Config{})
	defer joined.Close()
	for i := 0; i < 10; i++ {
		if _, err := joined.Register(fleet.RegisterRequest{URL: fmt.Sprintf("http://127.0.0.1:%d", 100+i)}); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name            string
		reg             *fleet.Registry
		elastic         bool
		inflight, local int
		want            int
	}{
		{"in-process", nil, false, 4, 0, procs},
		{"fixed list", static, false, 4, 2, 3*4 + 2},
		{"fixed list below the elastic floor", static, false, 1, 0, 3},
		{"elastic, no members at start", empty, true, 4, 0, max(minElasticWorkers, procs)},
		{"elastic, members at start", joined, true, 4, 1, max(10*4+1, procs)},
		{"elastic, -local above the floor", empty, true, 4, 40, max(40, procs)},
	}
	for _, c := range cases {
		d := dispatch{elastic: c.elastic, inflight: c.inflight, local: c.local}
		if got := d.fanOut(c.reg); got != c.want {
			t.Errorf("%s: fanOut = %d, want %d", c.name, got, c.want)
		}
	}
	if got := (&dispatch{workers: 5, elastic: true, inflight: 4}).fanOut(joined); got != 5 {
		t.Errorf("-workers 5 over an elastic fleet: fanOut = %d, want 5", got)
	}
}
