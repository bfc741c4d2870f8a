package tracedir

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
	if d := diffTraces(seamed, direct); d != "" {
		t.Fatalf("fetcher-seam dataset differs from Source.Load: %s", d)
	}
	// And both reproduce the recorded dataset exactly.
	if d := diffTraces(direct, ds); d != "" {
		t.Fatalf("round trip is not lossless through the fetcher seam: %s", d)
	}
}

// diffTraces describes the first difference between two datasets' names,
// sampling intervals and sample bits, or returns "".
func diffTraces(got, want *model.Dataset) string {
	if len(got.Names) != len(want.Names) || len(got.Fine) != len(want.Fine) {
		return fmt.Sprintf("%d names and %d traces, want %d and %d", len(got.Names), len(got.Fine), len(want.Names), len(want.Fine))
	}
	for i, s := range got.Fine {
		w := want.Fine[i]
		if got.Names[i] != want.Names[i] || s.Len() != w.Len() || s.Interval() != w.Interval() {
			return fmt.Sprintf("VM %d is %q, %d samples at %v; want %q, %d at %v",
				i, got.Names[i], s.Len(), s.Interval(), want.Names[i], w.Len(), w.Interval())
		}
		for j, v := range s.Samples() {
			if math.Float64bits(v) != math.Float64bits(w.At(j)) {
				return fmt.Sprintf("VM %d sample %d is %v, want %v", i, j, v, w.At(j))
			}
		}
	}
	return ""
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
