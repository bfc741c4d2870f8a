package tracedir

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/pkg/dcsim/model"
)

// testDataset builds a small deterministic dataset: nVMs VMs, 2 hours of
// 5-second samples.
func testDataset(nVMs int) *model.Dataset {
	const samples = 2 * 60 * 60 / 5
	ds := &model.Dataset{}
	for v := 0; v < nVMs; v++ {
		fine := make([]float64, samples)
		for i := range fine {
			fine[i] = float64(v+1) + float64(i%7)/8
		}
		s := model.SeriesFromSamples(5*time.Second, fine)
		ds.Names = append(ds.Names, "vm"+string(rune('a'+v)))
		ds.Fine = append(ds.Fine, s)
	}
	return ds
}

// materialize reads a workload through Source.Load, the one read path.
func materialize(w model.Workload) (*model.Dataset, error) {
	return Source{}.Load(context.Background(), w)
}

func TestWriteLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds := testDataset(5)
	if err := Write(dir, ds, 2); err != nil {
		t.Fatal(err)
	}
	// 5 VMs at 2 per file: 3 chunks plus the manifest.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("wrote %d files, want 3 chunks + manifest", len(entries))
	}

	w := model.Workload{Kind: "trace-dir", VMs: 5, Hours: 2, Path: dir}
	if err := (Source{}).Check(w); err != nil {
		t.Fatal(err)
	}
	got, err := materialize(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Fine) != 5 || len(got.Names) != 5 {
		t.Fatalf("loaded %d/%d VMs", len(got.Names), len(got.Fine))
	}
	for v := range ds.Fine {
		if got.Names[v] != ds.Names[v] {
			t.Fatalf("VM %d name %q, want %q", v, got.Names[v], ds.Names[v])
		}
		if got.Fine[v].Interval() != 5*time.Second {
			t.Fatalf("VM %d interval %v", v, got.Fine[v].Interval())
		}
		for i := 0; i < ds.Fine[v].Len(); i++ {
			if got.Fine[v].At(i) != ds.Fine[v].At(i) {
				t.Fatalf("VM %d sample %d: %v != %v (lossy round trip)",
					v, i, got.Fine[v].At(i), ds.Fine[v].At(i))
			}
		}
	}
}

func TestCheckWorkloadMismatches(t *testing.T) {
	dir := t.TempDir()
	if err := Write(dir, testDataset(3), 0); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		w    model.Workload
		want string
	}{
		{"no path", model.Workload{Kind: "trace-dir"}, "needs a path"},
		{"missing dir", model.Workload{Kind: "trace-dir", Path: filepath.Join(dir, "nope")}, "manifest.json"},
		{"vm mismatch", model.Workload{Kind: "trace-dir", Path: dir, VMs: 7}, "records 3 VMs"},
		{"hours mismatch", model.Workload{Kind: "trace-dir", Path: dir, VMs: 3, Hours: 24}, "records 2 h"},
	}
	for _, c := range cases {
		err := (Source{}).Check(c.w)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
		if _, err := materialize(c.w); err == nil {
			t.Errorf("%s: Load should fail the same check", c.name)
		}
	}
	// Zero VMs/hours mean "whatever is recorded": no mismatch to report.
	if err := (Source{}).Check(model.Workload{Kind: "trace-dir", Path: dir}); err != nil {
		t.Errorf("unconstrained workload rejected: %v", err)
	}
}

func TestTamperedDirectoryRejected(t *testing.T) {
	write := func(t *testing.T) string {
		dir := t.TempDir()
		if err := Write(dir, testDataset(3), 2); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	w := func(dir string) model.Workload {
		return model.Workload{Kind: "trace-dir", Path: dir, VMs: 3, Hours: 2}
	}

	t.Run("missing chunk", func(t *testing.T) {
		dir := write(t)
		if err := os.Remove(filepath.Join(dir, "traces-001.csv")); err != nil {
			t.Fatal(err)
		}
		if _, err := materialize(w(dir)); err == nil {
			t.Fatal("missing chunk not detected")
		}
	})
	t.Run("truncated chunk", func(t *testing.T) {
		dir := write(t)
		path := filepath.Join(dir, "traces-000.csv")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		short := data[:len(data)/2]
		short = short[:strings.LastIndexByte(string(short), '\n')+1]
		if err := os.WriteFile(path, short, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := materialize(w(dir)); err == nil {
			t.Fatal("truncated chunk not detected")
		}
	})
	t.Run("renamed column", func(t *testing.T) {
		dir := write(t)
		path := filepath.Join(dir, "traces-000.csv")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tampered := strings.Replace(string(data), "vma", "vmx", 1)
		if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := materialize(w(dir)); err == nil {
			t.Fatal("renamed column not detected")
		}
	})
	t.Run("negative sample", func(t *testing.T) {
		dir := write(t)
		path := filepath.Join(dir, "traces-000.csv")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(string(data), "\n", 3)
		fields := strings.Split(lines[1], ",")
		fields[1] = "-1"
		lines[1] = strings.Join(fields, ",")
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := materialize(w(dir)); err == nil {
			t.Fatal("negative demand sample not detected")
		}
	})
	t.Run("manifest claims wrong horizon", func(t *testing.T) {
		dir := write(t)
		path := filepath.Join(dir, ManifestName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tampered := strings.Replace(string(data), `"hours": 2`, `"hours": 3`, 1)
		if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
			t.Fatal(err)
		}
		// Samples × interval no longer spans the claimed horizon.
		if _, err := ReadManifest(dir); err == nil {
			t.Fatal("inconsistent manifest not detected")
		}
	})
	t.Run("manifest span overflows", func(t *testing.T) {
		dir := write(t)
		path := filepath.Join(dir, ManifestName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// 4 samples of 2^62 ns + 15 min wrap int64 to exactly one hour.
		tampered := strings.NewReplacer(`"interval": "5s"`, `"interval": "4611686918427387904ns"`,
			`"samples": 1440`, `"samples": 4`, `"hours": 2`, `"hours": 1`).Replace(string(data))
		if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifest(dir); err == nil || !strings.Contains(err.Error(), "manifest claims 1 h") {
			t.Fatalf("overflowing span: err = %v, want it rejected", err)
		}
	})
	t.Run("manifest escapes the directory", func(t *testing.T) {
		dir := write(t)
		path := filepath.Join(dir, ManifestName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tampered := strings.Replace(string(data), `"file": "traces-000.csv"`, `"file": "../traces-000.csv"`, 1)
		if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifest(dir); err == nil {
			t.Fatal("path traversal in manifest not rejected")
		}
	})
}

func TestWriteRejectsBadDatasets(t *testing.T) {
	dir := t.TempDir()
	if err := Write(dir, nil, 0); err == nil {
		t.Error("nil dataset accepted")
	}
	if err := Write(dir, &model.Dataset{}, 0); err == nil {
		t.Error("empty dataset accepted")
	}
	// A horizon that is not a whole number of hours cannot be validated
	// against a scenario's Hours field.
	s := model.SeriesFromSamples(5*time.Second, make([]float64, 100))
	ds := &model.Dataset{Names: []string{"vm"}, Fine: []*model.Series{s}}
	if err := Write(dir, ds, 0); err == nil || !strings.Contains(err.Error(), "whole number of hours") {
		t.Errorf("fractional horizon: err = %v", err)
	}
}

// bufFetcher is a DirFetcher that records the buffer each Chunk call is
// handed and the bytes it returns.
type bufFetcher struct {
	DirFetcher
	passed, returned [][]byte
}

func (f *bufFetcher) Chunk(ctx context.Context, name string, buf []byte) ([]byte, error) {
	data, err := f.DirFetcher.Chunk(ctx, name, buf)
	f.passed = append(f.passed, buf)
	f.returned = append(f.returned, data)
	return data, err
}

// sameStorage reports whether two non-empty slices start at one address.
func sameStorage(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[:1][0] == &b[:1][0]
}

// TestStreamReusesChunkBuffer: LoadFrom hands each chunk's bytes back as
// the buffer for the next, and reading chunk k+1 into that storage leaves
// every name and sample of chunk k's traces unchanged.
func TestStreamReusesChunkBuffer(t *testing.T) {
	dir := t.TempDir()
	ds := testDataset(6) // two chunks of equal byte size
	if err := Write(dir, ds, 3); err != nil {
		t.Fatal(err)
	}
	f := &bufFetcher{DirFetcher: DirFetcher{Dir: dir}}
	got, err := LoadFrom(context.Background(), f, model.Workload{Kind: "trace-dir"})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.passed) != 2 {
		t.Fatalf("%d Chunk calls, want 2", len(f.passed))
	}
	if f.passed[0] != nil {
		t.Fatalf("first Chunk call handed a %d-byte buffer, want none", len(f.passed[0]))
	}
	if !sameStorage(f.passed[1], f.returned[0]) || !sameStorage(f.returned[1], f.returned[0]) {
		t.Fatal("chunk 1 was not read into chunk 0's buffer")
	}
	if len(got.Names) != len(ds.Names) || len(got.Fine) != len(ds.Fine) {
		t.Fatalf("loaded %d names and %d traces, wrote %d", len(got.Names), len(got.Fine), len(ds.Fine))
	}
	for i, s := range got.Fine {
		if got.Names[i] != ds.Names[i] {
			t.Errorf("VM %d named %q, want %q", i, got.Names[i], ds.Names[i])
		}
		for j, v := range s.Samples() {
			if v != ds.Fine[i].At(j) {
				t.Fatalf("VM %d sample %d is %v after the next chunk loaded, wrote %v", i, j, v, ds.Fine[i].At(j))
			}
		}
	}
}
