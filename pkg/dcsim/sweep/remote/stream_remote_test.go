package remote_test

import (
	"bytes"
	"context"
	"testing"

	"repro/pkg/dcsim"
	"repro/pkg/dcsim/sweep"
)

// resultCSV marshals the aggregate the local-vs-remote contract is pinned
// on.
func resultCSV(t *testing.T, res *sweep.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamedRemoteTraceDir pins the streaming data path across the
// wire over a recorded workload: remote workers streaming a trace
// directory chunk by chunk reproduce the local run byte for byte. (The
// httptest workers run in-process, so the recording's path resolves for
// them.)
func TestStreamedRemoteTraceDir(t *testing.T) {
	ds, err := dcsim.GenerateTraces(dcsim.Workload{Kind: "datacenter", VMs: 6, Groups: 2, Hours: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := dcsim.WriteTraceDir(dir, ds, 2); err != nil {
		t.Fatal(err)
	}
	g := tinyGrid()
	g.Base.Workload = dcsim.Workload{Kind: "trace-dir", VMs: 6, Groups: 2, Hours: 1, Path: dir}
	g.Replicas = 1 // recorded kinds are seed-invariant

	local, err := sweep.Run(context.Background(), g, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := resultCSV(t, local)

	exec := staticExec(t, cluster(t, 2, nil))
	res, err := remoteRun(t, g, exec)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultCSV(t, res); !bytes.Equal(got, want) {
		t.Fatalf("remote streamed trace-dir CSV differs from local:\n%s\nvs\n%s", got, want)
	}
}
