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

// memFetcher is an in-memory ChunkFetcher: the manifest under
// ManifestName, and the same chunk bytes under every other name.
type memFetcher struct{ manifest, chunk []byte }

func (f memFetcher) Chunk(_ context.Context, name string, _ []byte) ([]byte, error) {
	if name == ManifestName {
		return f.manifest, nil
	}
	return f.chunk, nil
}

func (f memFetcher) Where(name string) string { return "mem/" + name }

// FuzzManifest feeds arbitrary manifest and chunk bytes through the
// recorded-trace read path — ReadManifestFrom, then LoadFrom. No input may
// panic it: every rejection comes back as an error, and every read that
// succeeds matches the manifest it was read against.
func FuzzManifest(f *testing.F) {
	// A valid recording small enough to mutate quickly: 2 VMs, one hour
	// of 1-minute samples.
	ds := &model.Dataset{}
	for v := 0; v < 2; v++ {
		fine := make([]float64, 60)
		for i := range fine {
			fine[i] = float64(v+1) + float64(i%5)/4
		}
		s := model.SeriesFromSamples(time.Minute, fine)
		ds.Names = append(ds.Names, "vm"+string(rune('a'+v)))
		ds.Fine = append(ds.Fine, s)
	}
	dir := f.TempDir()
	if err := Write(dir, ds, 0); err != nil {
		f.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	chunk, err := os.ReadFile(filepath.Join(dir, "traces-000.csv"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(manifest, chunk)
	for _, tamper := range [][2]string{
		// Keys older recordings carry, which reads ignore, at values no
		// downsample could take.
		{`"hours": 1,`, `"hours": 1, "coarse_factor": 9223372036854775760, "groups": [0, 1],`},
		{`"hours": 1,`, `"hours": 1, "coarse_factor": -1,`},
		{`"samples": 60`, `"samples": 9223372036854775807`},
	} {
		tampered := strings.Replace(string(manifest), tamper[0], tamper[1], 1)
		if tampered == string(manifest) {
			f.Fatalf("seed manifest has no %s to tamper with", tamper[0])
		}
		f.Add([]byte(tampered), chunk)
	}
	f.Add([]byte(`{"version":1}`), []byte("t,vma\n0,1\n60,2\n"))
	f.Add([]byte("{"), []byte{})

	f.Fuzz(func(t *testing.T, manifest, chunk []byte) {
		ctx := context.Background()
		fetch := memFetcher{manifest: manifest, chunk: chunk}
		m, err := ReadManifestFrom(ctx, fetch)
		if err != nil {
			return // rejection is fine; panics are not
		}
		got, err := LoadFrom(ctx, fetch, model.Workload{Kind: "trace-dir"})
		if err != nil {
			return
		}
		if len(got.Names) != len(m.Names) || len(got.Fine) != len(m.Names) {
			t.Fatalf("read %d names and %d VMs, manifest names %d", len(got.Names), len(got.Fine), len(m.Names))
		}
		iv, _ := m.interval()
		for i, s := range got.Fine {
			if got.Names[i] != m.Names[i] || s.Len() != m.Samples || s.Interval() != iv {
				t.Fatalf("VM %d read as %q, %d samples at %v; manifest says %q, %d at %v",
					i, got.Names[i], s.Len(), s.Interval(), m.Names[i], m.Samples, iv)
			}
		}
	})
}
