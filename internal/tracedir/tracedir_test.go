package tracedir

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/datasettest"
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

// bufFetcher is a DirFetcher that records, for each chunk fetch, the
// name asked for, the buffer handed in, the bytes returned and the
// goroutine that called. It records the manifest fetch apart: the
// goroutine, the chunks fetched before it and whether it handed a buffer.
type bufFetcher struct {
	DirFetcher
	manifest         []string
	names            []string
	passed, returned [][]byte
	callers          []string
}

func (f *bufFetcher) Chunk(ctx context.Context, name string, buf []byte) ([]byte, error) {
	data, err := f.DirFetcher.Chunk(ctx, name, buf)
	if name == ManifestName {
		f.manifest = append(f.manifest, fmt.Sprintf("goroutine %s after %d chunks, buffer %t", goroutine(), len(f.names), buf != nil))
		return data, err
	}
	f.names = append(f.names, name)
	f.passed = append(f.passed, buf)
	f.returned = append(f.returned, data)
	f.callers = append(f.callers, goroutine())
	return data, err
}

// goroutine returns the calling goroutine's number, from the first line
// of its stack trace ("goroutine 7 [running]:").
func goroutine() string {
	var b [64]byte
	return strings.Fields(string(b[:runtime.Stack(b[:], false)]))[1]
}

// sameStorage reports whether two non-empty slices start at one address.
func sameStorage(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[:1][0] == &b[:1][0]
}

// TestStreamReusesChunkBuffer: LoadFrom fetches the manifest once, into
// no buffer, then every chunk in file order, all from the goroutine that
// called it, and reads each chunk past the first GOMAXPROCS into the
// buffer of one whose decode has finished, so at most GOMAXPROCS buffers
// serve every chunk; at GOMAXPROCS 1, chunk 1 is read into chunk 0's
// buffer. Reading into a decoded chunk's storage leaves every name and
// sample of its traces unchanged.
func TestStreamReusesChunkBuffer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	dir := t.TempDir()
	ds := testDataset(9) // nine chunks of equal byte size
	if err := Write(dir, ds, 1); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		f := &bufFetcher{DirFetcher: DirFetcher{Dir: dir}}
		got, err := LoadFrom(context.Background(), f, model.Workload{Kind: "trace-dir"})
		if err != nil {
			t.Fatal(err)
		}
		if d := datasettest.Diff(got, ds); d != "" {
			t.Fatalf("GOMAXPROCS %d: %s", procs, d)
		}
		if len(f.names) != len(m.Files) {
			t.Fatalf("GOMAXPROCS %d: %d Chunk calls, want %d", procs, len(f.names), len(m.Files))
		}
		me := goroutine()
		if want := fmt.Sprintf("goroutine %s after 0 chunks, buffer false", me); len(f.manifest) != 1 || f.manifest[0] != want {
			t.Fatalf("GOMAXPROCS %d: manifest fetches %q, want one, %q", procs, f.manifest, want)
		}
		for k, entry := range m.Files {
			if f.names[k] != entry.File || f.callers[k] != me {
				t.Fatalf("GOMAXPROCS %d: Chunk call %d fetched %s on goroutine %s, want %s on %s",
					procs, k, f.names[k], f.callers[k], entry.File, me)
			}
		}
		if procs == 1 && (!sameStorage(f.passed[1], f.returned[0]) || !sameStorage(f.returned[1], f.returned[0])) {
			t.Fatal("GOMAXPROCS 1: chunk 1 was not read into chunk 0's buffer")
		}
		var buffers [][]byte // the distinct storages returned
		for k, buf := range f.passed {
			if (buf == nil) != (k < procs) {
				t.Fatalf("GOMAXPROCS %d: Chunk call %d handed a %d-byte buffer", procs, k, len(buf))
			}
			if buf != nil && !slices.ContainsFunc(f.returned[:k], func(b []byte) bool { return sameStorage(b, buf) }) {
				t.Fatalf("GOMAXPROCS %d: Chunk call %d handed a buffer no earlier call returned", procs, k)
			}
			if !slices.ContainsFunc(buffers, func(b []byte) bool { return sameStorage(b, f.returned[k]) }) {
				buffers = append(buffers, f.returned[k])
			}
		}
		if len(buffers) > procs {
			t.Fatalf("GOMAXPROCS %d: %d buffers served %d chunks", procs, len(buffers), len(m.Files))
		}
	}
}

// corruptRow writes a bad sample into data row r (counted from 1) of a
// chunk file holding one VM.
func corruptRow(t *testing.T, path string, r int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	ts, _, _ := strings.Cut(lines[r], ",")
	lines[r] = ts + ",1x5"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadFromLowestBadRowAtAnyGOMAXPROCS: chunks decode concurrently,
// but a clean recording loads the same samples at every GOMAXPROCS, and
// with bad rows in two chunks the error names the lower chunk and the
// lowest bad row in it, even where the higher chunk fails sooner.
func TestLoadFromLowestBadRowAtAnyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ds := testDataset(8)
	clean := t.TempDir()
	if err := Write(clean, ds, 1); err != nil {
		t.Fatal(err)
	}
	rows := ds.Fine[0].Len()
	cases := []struct {
		bad      map[int][]int // chunk → its bad rows, counted from 1
		chunk, r int           // the chunk and row the error names
	}{
		{map[int][]int{2: {rows, rows - 700}, 5: {1}}, 2, rows - 700},
		{map[int][]int{0: {rows}, 7: {1, 2}}, 0, rows},
		{map[int][]int{3: {9, 4}, 4: {1}}, 3, 4},
	}
	dirs := make([]string, len(cases))
	for i, c := range cases {
		dirs[i] = t.TempDir()
		if err := Write(dirs[i], ds, 1); err != nil {
			t.Fatal(err)
		}
		for chunk, rs := range c.bad {
			for _, r := range rs {
				corruptRow(t, filepath.Join(dirs[i], fmt.Sprintf("traces-%03d.csv", chunk)), r)
			}
		}
	}
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		got, err := materialize(model.Workload{Kind: "trace-dir", Path: clean})
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		if d := datasettest.Diff(got, ds); d != "" {
			t.Fatalf("GOMAXPROCS %d: %s", procs, d)
		}
		for i, c := range cases {
			_, err := materialize(model.Workload{Kind: "trace-dir", Path: dirs[i]})
			want := fmt.Sprintf("tracedir: read %s: trace: row %d: bad sample \"1x5\"",
				filepath.Join(dirs[i], fmt.Sprintf("traces-%03d.csv", c.chunk)), c.r)
			if err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("GOMAXPROCS %d, bad rows %v: err = %v, want %q…", procs, c.bad, err, want)
			}
		}
	}
}

// failFetcher is a DirFetcher that counts its chunk fetches, the
// manifest's not among them, and, at the chunk named at, fails the fetch
// or cancels the load's context.
type failFetcher struct {
	DirFetcher
	at     string
	cancel context.CancelFunc // nil: fail the fetch
	calls  int
}

var errFetch = errors.New("fetch failed")

func (f *failFetcher) Chunk(ctx context.Context, name string, buf []byte) ([]byte, error) {
	if name == ManifestName {
		return f.DirFetcher.Chunk(ctx, name, buf)
	}
	f.calls++
	if name == f.at {
		if f.cancel == nil {
			return nil, errFetch
		}
		f.cancel()
	}
	return f.DirFetcher.Chunk(ctx, name, buf)
}

// loadGoroutines counts the goroutines that are running a LoadFrom decode.
func loadGoroutines() int {
	var b bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&b, 1); err != nil {
		panic(err)
	}
	return strings.Count(b.String(), "tracedir.LoadFrom.func")
}

// TestLoadFromLeavesNoGoroutine: a load that fails on a fetch, on a
// decode or on its cancelled context returns the error and fetches no
// chunk past the failure but those already in flight; once it has
// returned, no decode it started is still running.
func TestLoadFromLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	dir := t.TempDir()
	if err := Write(dir, testDataset(12), 1); err != nil {
		t.Fatal(err)
	}
	bad := t.TempDir()
	if err := Write(bad, testDataset(12), 1); err != nil {
		t.Fatal(err)
	}
	corruptRow(t, filepath.Join(bad, "traces-005.csv"), 3)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		ctx, cancel := context.WithCancel(context.Background())
		// At one CPU a fetch waits for the last decode, so the bad chunk
		// is the last fetched. With more, later chunks may be fetched
		// before its decode has run.
		decodeMax := 6
		if procs > 1 {
			decodeMax = 12
		}
		cases := []struct {
			name     string
			ctx      context.Context
			f        *failFetcher
			want     string
			min, max int // Chunk calls
		}{
			{"fetch error", context.Background(), &failFetcher{DirFetcher: DirFetcher{dir}, at: "traces-006.csv"},
				"tracedir: fetch failed", 7, 7},
			{"decode error", context.Background(), &failFetcher{DirFetcher: DirFetcher{bad}},
				"tracedir: read " + filepath.Join(bad, "traces-005.csv") + ": trace: row 3: bad sample", 6, decodeMax},
			{"cancelled", ctx, &failFetcher{DirFetcher: DirFetcher{dir}, at: "traces-004.csv", cancel: cancel},
				"tracedir: context canceled", 5, 5},
		}
		for _, c := range cases {
			_, err := LoadFrom(c.ctx, c.f, model.Workload{Kind: "trace-dir"})
			if err == nil || !strings.HasPrefix(err.Error(), c.want) {
				t.Errorf("GOMAXPROCS %d, %s: err = %v, want %q…", procs, c.name, err, c.want)
			}
			if c.f.calls < c.min || c.f.calls > c.max {
				t.Errorf("GOMAXPROCS %d, %s: %d chunks fetched, want %d to %d", procs, c.name, c.f.calls, c.min, c.max)
			}
			// A decode's goroutine may still be unwinding from its last
			// deferred call when LoadFrom returns; give it a moment to exit.
			for deadline := time.Now().Add(5 * time.Second); loadGoroutines() > 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("GOMAXPROCS %d, %s: %d decodes still running after LoadFrom returned",
						procs, c.name, loadGoroutines())
				}
			}
		}
		cancel()
	}
}
