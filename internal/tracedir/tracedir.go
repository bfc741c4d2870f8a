// Package tracedir implements the recorded-trace workload stack: a
// manifest.json naming every VM in canonical order plus chunked demand-
// trace CSVs, parsed, validated, and assembled into a model.Dataset by
// LoadFrom. It is the shared core of every recorded workload backend — the
// "trace-dir" kind it implements directly, and the object-store
// "trace-obj" kind (internal/objstore), which plugs a different transport
// into the same assembly path.
//
// The transport seam is ChunkFetcher: fetch an object by name, the
// manifest (ManifestName) like any chunk, and describe where an object
// lives for error text. Everything after the bytes arrive — manifest
// validation, column-order checks, interval and sample-count verification
// — is ChunkFetcher-independent and runs verbatim for every backend, so a
// recording read from an object store reproduces a local directory read
// bit for bit.
//
// Layout: one manifest.json naming every VM in canonical order, the
// sampling interval, the horizon, and the CSV files (each holding a chunk
// of VM columns in WriteCSV format). Manifest decoding ignores keys it
// does not know, so older recordings that also carry "coarse_factor" and
// "groups" read the same fine series. Chunks are fetched one at a time,
// in file order, and each is decoded on a goroutine of its own while the
// next is fetched; at most GOMAXPROCS chunks are in flight, and a chunk's
// buffer serves a later fetch once its decode is done, so memory stays
// bounded by GOMAXPROCS chunks' bytes plus the assembled dataset.
package tracedir

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
	"repro/pkg/dcsim/model"
)

// ManifestName is the manifest's file name inside a trace directory.
const ManifestName = "manifest.json"

// Version is the manifest format version this package writes and accepts.
const Version = 1

// FileEntry names one CSV chunk and the VM columns it holds, in column
// order.
type FileEntry struct {
	File  string   `json:"file"`
	Names []string `json:"names"`
}

// Manifest describes a recorded trace directory: the canonical VM order,
// the shared sample interval and count, the horizon, and the chunk files.
// It is what scenario validation checks a Workload against before any
// trace bytes are read.
type Manifest struct {
	Version int `json:"version"`
	// Interval is the fine sample interval (time.Duration string).
	Interval string `json:"interval"`
	// Samples is the per-VM sample count; Samples × Interval must equal
	// Hours hours exactly.
	Samples int `json:"samples"`
	// Hours is the trace horizon, the unit scenarios speak.
	Hours int `json:"hours"`
	// Names lists every VM in canonical dataset order.
	Names []string `json:"names"`
	// Files lists the CSV chunks; concatenating their columns in file
	// order must reproduce Names exactly.
	Files []FileEntry `json:"files"`
}

// interval parses the manifest's interval string.
func (m *Manifest) interval() (time.Duration, error) {
	iv, err := time.ParseDuration(m.Interval)
	if err != nil {
		return 0, fmt.Errorf("tracedir: bad manifest interval %q: %w", m.Interval, err)
	}
	if iv <= 0 {
		return 0, fmt.Errorf("tracedir: non-positive manifest interval %q", m.Interval)
	}
	return iv, nil
}

// validate checks the manifest's internal consistency.
func (m *Manifest) validate() error {
	if m.Version != Version {
		return fmt.Errorf("tracedir: manifest version %d, want %d", m.Version, Version)
	}
	if len(m.Names) == 0 {
		return fmt.Errorf("tracedir: manifest names no VMs")
	}
	if m.Samples < 2 {
		return fmt.Errorf("tracedir: manifest needs at least 2 samples, got %d", m.Samples)
	}
	if m.Hours < 1 {
		return fmt.Errorf("tracedir: manifest needs a positive horizon, got %d hours", m.Hours)
	}
	iv, err := m.interval()
	if err != nil {
		return err
	}
	// Check the product and divide the horizon out rather than multiply it
	// in, so no overflowing count passes as a consistent span.
	if span := time.Duration(m.Samples) * iv; span/iv != time.Duration(m.Samples) ||
		span%time.Hour != 0 || span/time.Hour != time.Duration(m.Hours) {
		return fmt.Errorf("tracedir: %d samples at %v span %v, manifest claims %d h",
			m.Samples, iv, span, m.Hours)
	}
	seen := make(map[string]bool, len(m.Names))
	for _, n := range m.Names {
		if n == "" {
			return fmt.Errorf("tracedir: empty VM name in manifest")
		}
		if seen[n] {
			return fmt.Errorf("tracedir: duplicate VM name %q in manifest", n)
		}
		seen[n] = true
	}
	// The chunk columns, concatenated in file order, must be exactly the
	// canonical name list: assembly then never reorders or searches.
	i := 0
	for _, f := range m.Files {
		if f.File == "" {
			return fmt.Errorf("tracedir: manifest file entry with empty name")
		}
		if filepath.Base(f.File) != f.File {
			return fmt.Errorf("tracedir: manifest file %q must be a bare file name", f.File)
		}
		for _, n := range f.Names {
			if i >= len(m.Names) || m.Names[i] != n {
				return fmt.Errorf("tracedir: file %q column %q does not match canonical name order", f.File, n)
			}
			i++
		}
	}
	if i != len(m.Names) {
		return fmt.Errorf("tracedir: manifest files cover %d of %d VMs", i, len(m.Names))
	}
	return nil
}

// CheckWorkload validates the manifest against a workload description: a
// nonzero VM count or horizon in the scenario must match the recording.
func (m *Manifest) CheckWorkload(w model.Workload) error {
	if w.VMs != 0 && w.VMs != len(m.Names) {
		return fmt.Errorf("tracedir: %s records %d VMs, scenario wants %d",
			w.Path, len(m.Names), w.VMs)
	}
	if w.Hours != 0 && w.Hours != m.Hours {
		return fmt.Errorf("tracedir: %s records %d h, scenario wants %d h",
			w.Path, m.Hours, w.Hours)
	}
	return nil
}

// ChunkFetcher is the transport seam of the recorded-trace stack: how the
// manifest and the chunk CSVs named by it are brought into memory, each
// by its name. The parse/validate/assemble path above the seam
// (ReadManifestFrom, LoadFrom) is transport-independent — DirFetcher
// reads a local directory through the OS, internal/objstore reads an
// HTTP object store — so every backend reproduces the same dataset from
// the same recorded bytes.
//
// Implementations return their transport's natural errors (an *os.PathError,
// an HTTP status error); the shared path wraps them in the package's
// long-standing "tracedir:" error shape. A fetcher with a notion of object
// identity (ETags) must fail deterministically when an object changes
// between fetches instead of silently mixing versions.
type ChunkFetcher interface {
	// Chunk fetches one object's raw bytes by name: ManifestName, or a
	// chunk file's manifest name. It may read them into buf's storage,
	// growing it as needed, and return that storage: LoadFrom passes the
	// bytes of an earlier chunk back as buf once it has decoded them, so a
	// few buffers serve every chunk. The caller only reads the returned
	// bytes, and only until it passes them back as buf. LoadFrom makes
	// every Chunk call from one goroutine: the manifest first, with a nil
	// buf, then the chunks in file order.
	Chunk(ctx context.Context, name string, buf []byte) ([]byte, error)
	// Where describes the named object's location for error text — a
	// joined filesystem path, a URL.
	Where(name string) string
}

// DirFetcher is the filesystem ChunkFetcher: objects are files inside Dir.
// It is the transport behind the "trace-dir" workload kind.
type DirFetcher struct {
	// Dir is the recorded trace directory (holding ManifestName).
	Dir string
}

// Chunk implements ChunkFetcher: the file is read into buf's storage.
func (f DirFetcher) Chunk(_ context.Context, name string, buf []byte) ([]byte, error) {
	file, err := os.Open(filepath.Join(f.Dir, name))
	if err != nil {
		return nil, err
	}
	defer file.Close()
	// Room for the whole file and the read that reports EOF, so a chunk
	// that fits buf's storage is read into it without growing it.
	size := 0
	if info, err := file.Stat(); err == nil && int64(int(info.Size())) == info.Size() {
		size = int(info.Size())
	}
	b := bytes.NewBuffer(slices.Grow(buf[:0], size+bytes.MinRead))
	_, err = b.ReadFrom(file)
	return b.Bytes(), err
}

// Where implements ChunkFetcher.
func (f DirFetcher) Where(name string) string { return filepath.Join(f.Dir, name) }

// ReadManifestFrom fetches, parses, and validates a recording's manifest
// through the given fetcher.
func ReadManifestFrom(ctx context.Context, f ChunkFetcher) (*Manifest, error) {
	data, err := f.Chunk(ctx, ManifestName, nil)
	if err != nil {
		return nil, fmt.Errorf("tracedir: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("tracedir: parse %s: %w", f.Where(ManifestName), err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// ReadManifest loads and validates dir's manifest.
func ReadManifest(dir string) (*Manifest, error) {
	return ReadManifestFrom(context.Background(), DirFetcher{Dir: dir})
}

// Write records a dataset's fine traces as a trace directory: chunked CSVs
// of at most perFile VM columns each, then the manifest (written last, so
// a torn write leaves an unreadable directory instead of a plausible one).
// The dataset's horizon must be a whole number of hours — the unit
// scenarios validate against.
func Write(dir string, ds *model.Dataset, perFile int) error {
	if ds == nil || len(ds.Fine) == 0 {
		return fmt.Errorf("tracedir: no fine traces to write")
	}
	if len(ds.Names) != len(ds.Fine) {
		return fmt.Errorf("tracedir: %d names for %d traces", len(ds.Names), len(ds.Fine))
	}
	if perFile < 1 {
		perFile = len(ds.Fine)
	}
	iv := ds.Fine[0].Interval()
	samples := ds.Fine[0].Len()
	span := time.Duration(samples) * iv
	if span <= 0 || span%time.Hour != 0 {
		return fmt.Errorf("tracedir: horizon %v is not a whole number of hours", span)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("tracedir: %w", err)
	}
	m := &Manifest{
		Version:  Version,
		Interval: iv.String(),
		Samples:  samples,
		Hours:    int(span / time.Hour),
		Names:    ds.Names,
	}
	for lo := 0; lo < len(ds.Fine); lo += perFile {
		hi := lo + perFile
		if hi > len(ds.Fine) {
			hi = len(ds.Fine)
		}
		name := fmt.Sprintf("traces-%03d.csv", len(m.Files))
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("tracedir: %w", err)
		}
		err = trace.WriteCSV(f, ds.Names[lo:hi], ds.Fine[lo:hi])
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("tracedir: write %s: %w", name, err)
		}
		m.Files = append(m.Files, FileEntry{File: name, Names: ds.Names[lo:hi]})
	}
	if err := m.validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("tracedir: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("tracedir: %w", err)
	}
	return nil
}

// Source is the "trace-dir" workload backend: Workload.Path names a
// directory written by Write (or by cmd/tracegen -dir), and Load reads it
// back chunk by chunk. The zero value is ready to use.
type Source struct{}

// SeedInvariant implements model.SeedInvariantSource: a recording is the
// same trace at every seed, so seed replicas over it are meaningless.
func (Source) SeedInvariant() bool { return true }

// Check implements model.WorkloadSource: the manifest must exist, be
// internally consistent, and match the workload's VM count and horizon —
// all without reading any trace bytes.
func (Source) Check(w model.Workload) error {
	if err := checkWorkloadShape(w); err != nil {
		return err
	}
	m, err := ReadManifest(w.Path)
	if err != nil {
		return err
	}
	return m.CheckWorkload(w)
}

// checkWorkloadShape rejects descriptions the filesystem backend cannot
// serve: no path, or options — the local directory reader has no knobs, so
// the unread-key contract (model.Workload.Options) rejects every key.
func checkWorkloadShape(w model.Workload) error {
	if w.Path == "" {
		return fmt.Errorf("tracedir: workload kind %q needs a path (the recorded trace directory)", w.Kind)
	}
	if bad := w.UnknownOptions(); len(bad) > 0 {
		return fmt.Errorf("tracedir: workload kind %q reads no options, got %s", w.Kind, strings.Join(bad, ", "))
	}
	return nil
}

// Load implements model.WorkloadSource: the recorded fine traces, read
// chunk by chunk and each chunk verified against the manifest.
func (Source) Load(ctx context.Context, w model.Workload) (*model.Dataset, error) {
	if err := checkWorkloadShape(w); err != nil {
		return nil, err
	}
	return LoadFrom(ctx, DirFetcher{Dir: w.Path}, w)
}

// LoadFrom loads the recording behind the fetcher. The manifest is
// fetched and validated, internally and against the workload, before any
// chunk is read, so a truncated or inconsistent manifest fails before
// trace bytes move. Then the chunks are fetched in file order on the
// caller's goroutine, which makes every call to f, and each is decoded
// on a goroutine of its own and verified against the manifest's column
// order, interval and sample count. At most GOMAXPROCS chunks are in
// flight: a fetch waits for a decode to finish and reads into its
// buffer, so besides the dataset a load holds at most GOMAXPROCS chunks'
// bytes. Fetching stops at the first failed fetch or decode, and
// LoadFrom waits for every decode it started and returns the first error
// in file order. It is the one read path every recorded backend shares,
// so the dataset (and every validation error past the transport) is
// identical whether the bytes came from a local directory or an object
// store. ctx is passed to every fetch and checked before each.
func LoadFrom(ctx context.Context, f ChunkFetcher, w model.Workload) (*model.Dataset, error) {
	m, err := ReadManifestFrom(ctx, f)
	if err != nil {
		return nil, err
	}
	if err := m.CheckWorkload(w); err != nil {
		return nil, err
	}
	iv, err := m.interval()
	if err != nil {
		return nil, err
	}
	chunks := make([][]*model.Series, len(m.Files))
	errs := make([]error, len(m.Files))
	// free holds the buffers no decode is reading, one per chunk that may
	// be in flight; taking one is the wait for a decode to finish.
	free := make(chan []byte, runtime.GOMAXPROCS(0))
	for range cap(free) {
		free <- nil
	}
	var failed atomic.Bool
	var wg sync.WaitGroup
	for k, entry := range m.Files {
		buf := <-free
		if failed.Load() {
			break
		}
		if err := ctx.Err(); err != nil {
			errs[k] = fmt.Errorf("tracedir: %w", err)
			break
		}
		data, err := f.Chunk(ctx, entry.File, buf)
		if err != nil {
			errs[k] = fmt.Errorf("tracedir: %w", err)
			break
		}
		where := f.Where(entry.File)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if chunks[k], errs[k] = readChunk(data, entry, where, iv, m.Samples); errs[k] != nil {
				failed.Store(true)
			}
			free <- data
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	ds := &model.Dataset{Names: m.Names, Fine: make([]*model.Series, 0, len(m.Names))}
	for _, series := range chunks {
		ds.Fine = append(ds.Fine, series...)
	}
	return ds, nil
}

// readChunk decodes one chunk's bytes, fetched from where, and verifies
// them against its manifest entry, the manifest's interval iv and its
// sample count.
func readChunk(data []byte, entry FileEntry, where string, iv time.Duration, samples int) ([]*model.Series, error) {
	names, series, err := trace.ReadCSV(data)
	if err != nil {
		return nil, fmt.Errorf("tracedir: read %s: %w", where, err)
	}
	if len(names) != len(entry.Names) {
		return nil, fmt.Errorf("tracedir: %s holds %d VMs, manifest lists %d",
			entry.File, len(names), len(entry.Names))
	}
	for i, n := range names {
		if n != entry.Names[i] {
			return nil, fmt.Errorf("tracedir: %s column %d is %q, manifest lists %q",
				entry.File, i, n, entry.Names[i])
		}
	}
	for _, s := range series {
		if s.Interval() != iv {
			return nil, fmt.Errorf("tracedir: %s sampled at %v, manifest claims %v",
				entry.File, s.Interval(), iv)
		}
		if s.Len() != samples {
			return nil, fmt.Errorf("tracedir: %s holds %d samples per VM, manifest claims %d",
				entry.File, s.Len(), samples)
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("tracedir: %s: %w", entry.File, err)
		}
	}
	return series, nil
}
