package tracedir

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datasettest"
	"repro/pkg/dcsim/model"
)

// TestFetcherGoldenRoundTrip pins the ChunkFetcher seam: the dataset
// assembled through it (LoadFrom over a DirFetcher) must be
// byte-identical to the one Source.Load returns — the "trace-dir" kind is
// just the filesystem fetcher behind the shared assembly path, and any
// divergence between the two would split the recorded-workload contract
// in half.
func TestFetcherGoldenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds := testDataset(5)
	if err := Write(dir, ds, 2); err != nil {
		t.Fatal(err)
	}
	w := model.Workload{Kind: "trace-dir", VMs: 5, Hours: 2, Path: dir}

	direct, err := materialize(w)
	if err != nil {
		t.Fatal(err)
	}
	seamed, err := LoadFrom(context.Background(), DirFetcher{Dir: dir}, w)
	if err != nil {
		t.Fatal(err)
	}
	if d := datasettest.Diff(seamed, direct); d != "" {
		t.Fatalf("fetcher-seam dataset differs from Source.Load: %s", d)
	}
	// And both reproduce the recorded dataset exactly.
	if d := datasettest.Diff(direct, ds); d != "" {
		t.Fatalf("round trip is not lossless through the fetcher seam: %s", d)
	}
}

// TestDirFetcherErrorTextPinned pins the exact error shapes of the
// filesystem backend across the ChunkFetcher refactor: config files,
// scripts, and the remote error taxonomy all key off these strings, so
// they must not drift when the transport seam moves.
func TestDirFetcherErrorTextPinned(t *testing.T) {
	dir := t.TempDir()
	if err := Write(dir, testDataset(3), 2); err != nil {
		t.Fatal(err)
	}
	w := model.Workload{Kind: "trace-dir", Path: dir}

	t.Run("missing manifest", func(t *testing.T) {
		empty := t.TempDir()
		_, err := materialize(model.Workload{Kind: "trace-dir", Path: empty})
		want := fmt.Sprintf("tracedir: open %s: no such file or directory", filepath.Join(empty, ManifestName))
		if err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %q", err, want)
		}
	})
	t.Run("missing chunk", func(t *testing.T) {
		if err := os.Remove(filepath.Join(dir, "traces-001.csv")); err != nil {
			t.Fatal(err)
		}
		_, err := materialize(w)
		want := fmt.Sprintf("tracedir: open %s: no such file or directory", filepath.Join(dir, "traces-001.csv"))
		if err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %q", err, want)
		}
	})
	t.Run("unparsable chunk", func(t *testing.T) {
		dir := t.TempDir()
		if err := Write(dir, testDataset(2), 0); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "traces-000.csv")
		if err := os.WriteFile(path, []byte("not,a\ntrace,csv\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := materialize(model.Workload{Kind: "trace-dir", Path: dir})
		wantPrefix := fmt.Sprintf("tracedir: read %s: ", path)
		if err == nil || !strings.HasPrefix(err.Error(), wantPrefix) {
			t.Fatalf("err = %v, want prefix %q", err, wantPrefix)
		}
	})
}
