package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
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
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "DCSIM_TEST_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stderr, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("dcsim %v: %v, want exit status 1; output:\n%s", c.args, err, &stderr)
		}
		out := stderr.String()
		if !strings.HasPrefix(out, c.want) || strings.Count(out, "dcsim: ") != 1 || strings.Count(out, "\n") != 1 {
			t.Errorf("dcsim %v printed %q, want one line starting %q with one \"dcsim: \"", c.args, out, c.want)
		}
	}
}
