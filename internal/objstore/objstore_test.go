package objstore

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/datasettest"
	"repro/internal/tracedir"
	"repro/pkg/dcsim/model"
)

// testDataset mirrors the tracedir test generator: deterministic fine
// traces, so recordings are reproducible.
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

// writeRecording writes a 5-VM recording chunked 2 VMs per file (3 chunks
// + manifest) and returns its directory.
func writeRecording(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := tracedir.Write(dir, testDataset(5), 2); err != nil {
		t.Fatal(err)
	}
	return dir
}

// materialize reads a workload through the source's Load, the one read
// path.
func materialize(src model.WorkloadSource, w model.Workload) (*model.Dataset, error) {
	return src.Load(context.Background(), w)
}

// objWorkload describes the recording at an object-store URL, caching into
// a test-private directory so runs don't share state through the default
// cache.
func objWorkload(t *testing.T, url string, opts ...string) model.Workload {
	t.Helper()
	w := model.Workload{Kind: "trace-obj", VMs: 5, Hours: 2, Path: url}
	w.SetOption(OptCacheDir, filepath.Join(t.TempDir(), "cache"))
	for i := 0; i+1 < len(opts); i += 2 {
		w.SetOption(opts[i], opts[i+1])
	}
	return w
}

// fastRetry reconfigures a workload for test-speed backoff.
func fastRetry() []string { return []string{OptFetchTimeout, "5s"} }

// countingHandler wraps a handler counting requests by method, and those
// that ask for a byte range.
type countingHandler struct {
	inner  http.Handler
	heads  atomic.Int64
	gets   atomic.Int64
	ranged atomic.Int64
}

func (c *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Range") != "" {
		c.ranged.Add(1)
	}
	switch r.Method {
	case http.MethodHead:
		c.heads.Add(1)
	case http.MethodGet:
		c.gets.Add(1)
	}
	c.inner.ServeHTTP(w, r)
}

// TestGoldenRoundTrip pins the tentpole contract: the dataset assembled
// from the object store is byte-identical to the one the filesystem
// backend reads from the same recording — same manifest parse, same chunk
// assembly, different transport.
func TestGoldenRoundTrip(t *testing.T) {
	dir := writeRecording(t)
	srv := httptest.NewServer(&DirServer{Dir: dir})
	defer srv.Close()

	local, err := materialize(tracedir.Source{}, model.Workload{Kind: "trace-dir", VMs: 5, Hours: 2, Path: dir})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := materialize(Source{}, objWorkload(t, srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	if d := datasettest.Diff(remote, local); d != "" {
		t.Fatalf("object-store dataset differs from the trace-dir dataset for the same recording: %s", d)
	}
}

// TestTransientFaultsHealed injects 503s on the first requests and expects
// the bounded retry to heal them: the read succeeds, the retry counter
// moves, and the dataset still matches the local read.
func TestTransientFaultsHealed(t *testing.T) {
	dir := writeRecording(t)
	ds := &DirServer{Dir: dir}
	ds.FailFirst(3)
	srv := httptest.NewServer(ds)
	defer srv.Close()

	before := Stats().FetchRetries
	got, err := materialize(Source{}, objWorkload(t, srv.URL, fastRetry()...))
	if err != nil {
		t.Fatalf("read through injected 503s: %v", err)
	}
	if d := Stats().FetchRetries - before; d < 3 {
		t.Fatalf("FetchRetries moved by %d, want >= 3", d)
	}
	local, err := materialize(tracedir.Source{}, model.Workload{Kind: "trace-dir", VMs: 5, Hours: 2, Path: dir})
	if err != nil {
		t.Fatal(err)
	}
	if d := datasettest.Diff(got, local); d != "" {
		t.Fatalf("healed read differs from the local read: %s", d)
	}
}

// TestTransientExhausted pins the give-up path: a store that only answers
// 503 exhausts the attempt budget and surfaces a TransientError.
func TestTransientExhausted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	_, err := materialize(Source{}, objWorkload(t, srv.URL, OptRetries, "2"))
	var te *TransientError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TransientError", err)
	}
	if te.Attempts != 2 {
		t.Fatalf("gave up after %d attempts, want the configured 2", te.Attempts)
	}
}

// TestNotFoundDeterministic pins the deterministic taxonomy: a 404 is the
// store's conclusive answer, surfaced untried — exactly one request.
func TestNotFoundDeterministic(t *testing.T) {
	dir := writeRecording(t)
	ch := &countingHandler{inner: &DirServer{Dir: dir}}
	srv := httptest.NewServer(ch)
	defer srv.Close()

	_, err := materialize(Source{}, objWorkload(t, srv.URL+"/missing-prefix"))
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusNotFound {
		t.Fatalf("err = %v, want a 404 *StatusError", err)
	}
	if n := ch.heads.Load() + ch.gets.Load(); n != 1 {
		t.Fatalf("404 took %d requests, want exactly 1 (no retries)", n)
	}
}

// TestETagFlipMidRead pins the changed-object path: a GET whose ETag
// differs from the identify fails deterministically, with no retry.
func TestETagFlipMidRead(t *testing.T) {
	var gets atomic.Int64
	body := strings.Repeat("x", 64)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodHead {
			w.Header().Set("ETag", `"v1"`)
			w.Header().Set("Content-Length", fmt.Sprint(len(body)))
			return
		}
		gets.Add(1)
		w.Header().Set("ETag", `"v2"`)
		w.Write([]byte(body))
	}))
	defer srv.Close()

	_, err := NewFetcher(srv.URL).Chunk(t.Context(), "obj", nil)
	var ce *ChangedError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ChangedError", err)
	}
	if ce.Had != `"v1"` || ce.Got != `"v2"` {
		t.Fatalf("ChangedError = %+v, want v1 -> v2", ce)
	}
	if n := gets.Load(); n != 1 {
		t.Fatalf("ETag flip took %d GETs, want exactly 1 (deterministic, untried)", n)
	}
}

// TestTruncatedRangeRetried pins the damaged-response path: a GET body
// shorter than the HEAD's Content-Length is transport damage, retried
// within the bounded budget and healed when the store recovers — whether
// the body is cut mid-transfer or arrives complete at the wrong size.
func TestTruncatedRangeRetried(t *testing.T) {
	body := strings.Repeat("y", 48)
	for _, tc := range []struct {
		name string
		// short writes a damaged answer: the first half of body, under a
		// Content-Length of its own choosing.
		short func(w http.ResponseWriter)
	}{
		{"cut mid-transfer", func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", fmt.Sprint(len(body)))
			io.WriteString(w, body[:len(body)/2])
		}},
		{"complete at the wrong size", func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", fmt.Sprint(len(body)/2))
			io.WriteString(w, body[:len(body)/2])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var truncate atomic.Int64
			truncate.Store(1)
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("ETag", `"t1"`)
				if r.Method == http.MethodHead {
					w.Header().Set("Content-Length", fmt.Sprint(len(body)))
					return
				}
				if truncate.Add(-1) >= 0 {
					tc.short(w)
					return
				}
				io.WriteString(w, body)
			}))
			defer srv.Close()

			before := Stats().FetchRetries
			got, err := NewFetcher(srv.URL).Chunk(t.Context(), "obj", nil)
			if err != nil {
				t.Fatalf("truncated body not healed: %v", err)
			}
			if string(got) != body {
				t.Fatalf("healed read returned %d bytes, want %d", len(got), len(body))
			}
			if d := Stats().FetchRetries - before; d < 1 {
				t.Fatal("truncated body healed without moving FetchRetries")
			}
		})
	}
}

// TestIdentityEncoding pins the GET's Accept-Encoding: a store that
// compresses any response whose request accepts gzip, under a different
// ETag, must still serve the identified object — which holds only while
// the fetcher asks for the identity encoding.
func TestIdentityEncoding(t *testing.T) {
	body := strings.Repeat("z", 4096)
	var gzipped bytes.Buffer
	zw := gzip.NewWriter(&gzipped)
	io.WriteString(zw, body)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		data, etag := []byte(body), `"z1"`
		if strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
			data, etag = gzipped.Bytes(), `W/"z1-gzip"`
			w.Header().Set("Content-Encoding", "gzip")
		}
		w.Header().Set("ETag", etag)
		w.Header().Set("Content-Length", fmt.Sprint(len(data)))
		if r.Method != http.MethodHead {
			w.Write(data)
		}
	}))
	defer srv.Close()

	got, err := NewFetcher(srv.URL).Chunk(t.Context(), "obj", nil)
	if err != nil {
		t.Fatalf("read from a compressing store: %v", err)
	}
	if string(got) != body {
		t.Fatalf("read %d bytes, want the %d-byte object", len(got), len(body))
	}
}

// TestOldRecordingsRead pins lenient manifest decoding: a manifest written
// with the "coarse_factor" and "groups" keys older recordings carry — at
// any value, including ones earlier validation rejected or that overflowed
// a downsample — opens through trace-dir and trace-obj and yields the same
// names and fine series as the manifest without them.
func TestOldRecordingsRead(t *testing.T) {
	local := func(dir string) (*model.Dataset, error) {
		return materialize(tracedir.Source{}, model.Workload{Kind: "trace-dir", VMs: 5, Hours: 2, Path: dir})
	}
	want, err := local(writeRecording(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, factor := range []string{"60", "9223372036854775760", "-1"} {
		t.Run("coarse_factor="+factor, func(t *testing.T) {
			dir := writeRecording(t)
			path := filepath.Join(dir, tracedir.ManifestName)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var m map[string]json.RawMessage
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatal(err)
			}
			m["coarse_factor"] = json.RawMessage(factor)
			m["groups"] = json.RawMessage(`[0, 1, 0, 1, 0]`)
			old, err := json.MarshalIndent(m, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, old, 0o644); err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(&DirServer{Dir: dir})
			defer srv.Close()

			for kind, read := range map[string]func() (*model.Dataset, error){
				"trace-dir": func() (*model.Dataset, error) { return local(dir) },
				"trace-obj": func() (*model.Dataset, error) { return materialize(Source{}, objWorkload(t, srv.URL)) },
			} {
				got, err := read()
				if err != nil {
					t.Fatalf("%s: %v", kind, err)
				}
				if d := datasettest.Diff(got, want); d != "" {
					t.Fatalf("%s: old manifest read differs from the manifest without its keys: %s", kind, d)
				}
			}
		})
	}
}

// TestColdThenWarmCache pins the cache contract: a second read of the same
// recording is served from the local cache — hits move, fetches don't, and
// the store sees only the revalidating HEADs.
func TestColdThenWarmCache(t *testing.T) {
	dir := writeRecording(t)
	ch := &countingHandler{inner: &DirServer{Dir: dir}}
	srv := httptest.NewServer(ch)
	defer srv.Close()

	w := objWorkload(t, srv.URL)
	cold := Stats()
	first, err := materialize(Source{}, w)
	if err != nil {
		t.Fatal(err)
	}
	afterCold := Stats()
	// 4 objects: the manifest plus 3 chunks.
	if d := afterCold.ChunkFetches - cold.ChunkFetches; d != 4 {
		t.Fatalf("cold run fetched %d objects, want 4", d)
	}
	getsAfterCold := ch.gets.Load()
	if getsAfterCold != 4 {
		t.Fatalf("cold run issued %d GETs, want one per object (4)", getsAfterCold)
	}

	second, err := materialize(Source{}, w)
	if err != nil {
		t.Fatal(err)
	}
	warm := Stats()
	if d := warm.ChunkFetches - afterCold.ChunkFetches; d != 0 {
		t.Fatalf("warm run fetched %d objects from the store, want 0", d)
	}
	if d := warm.CacheHits - afterCold.CacheHits; d != 4 {
		t.Fatalf("warm run hit the cache %d times, want 4", d)
	}
	if d := ch.gets.Load() - getsAfterCold; d != 0 {
		t.Fatalf("warm run issued %d GETs, want 0 (HEAD revalidation only)", d)
	}
	if n := ch.ranged.Load(); n != 0 {
		t.Fatalf("%d requests asked for a byte range, want 0", n)
	}
	if d := datasettest.Diff(first, testDataset(5)); d != "" {
		t.Fatalf("cold dataset differs from the recording: %s", d)
	}
	if d := datasettest.Diff(second, first); d != "" {
		t.Fatalf("warm dataset differs from cold dataset: %s", d)
	}
}

// TestCacheOff pins the opt-out: cache_dir=off reads the store every time.
func TestCacheOff(t *testing.T) {
	dir := writeRecording(t)
	srv := httptest.NewServer(&DirServer{Dir: dir})
	defer srv.Close()

	w := model.Workload{Kind: "trace-obj", VMs: 5, Hours: 2, Path: srv.URL}
	w.SetOption(OptCacheDir, "off")
	before := Stats()
	for i := 0; i < 2; i++ {
		if _, err := materialize(Source{}, w); err != nil {
			t.Fatal(err)
		}
	}
	after := Stats()
	if d := after.ChunkFetches - before.ChunkFetches; d != 8 {
		t.Fatalf("two uncached runs fetched %d objects, want 8", d)
	}
	if d := after.CacheHits - before.CacheHits; d != 0 {
		t.Fatalf("cache_dir=off produced %d cache hits", d)
	}
}

// TestReplacedObjectRefetched pins cache correctness over replacement: a
// rewritten recording changes the ETag, so the stale entry is bypassed and
// the new bytes fetched — never served stale.
func TestReplacedObjectRefetched(t *testing.T) {
	dir := writeRecording(t)
	srv := httptest.NewServer(&DirServer{Dir: dir})
	defer srv.Close()

	w := objWorkload(t, srv.URL)
	if _, err := materialize(Source{}, w); err != nil {
		t.Fatal(err)
	}
	// Replace the recording in place, re-chunked 3 VMs per file: the
	// manifest and every chunk change content, so every ETag flips.
	if err := tracedir.Write(dir, testDataset(5), 3); err != nil {
		t.Fatal(err)
	}
	// Force distinct mtimes so the DirServer's ETag cache re-hashes.
	old := time.Now().Add(-time.Hour)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if err := os.Chtimes(filepath.Join(dir, e.Name()), old, old); err != nil {
			t.Fatal(err)
		}
	}
	before := Stats()
	got, err := materialize(Source{}, w)
	if err != nil {
		t.Fatal(err)
	}
	if d := Stats().ChunkFetches - before.ChunkFetches; d == 0 {
		t.Fatal("replaced recording served entirely from cache (stale read)")
	}
	local, err := materialize(tracedir.Source{}, model.Workload{Kind: "trace-dir", VMs: 5, Hours: 2, Path: dir})
	if err != nil {
		t.Fatal(err)
	}
	if d := datasettest.Diff(got, local); d != "" {
		t.Fatalf("refetched dataset does not match the replaced recording: %s", d)
	}
}

// TestCacheEviction pins the LRU byte budget: inserting past the budget
// evicts oldest-used entries and moves the eviction counter.
func TestCacheEviction(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	before := Stats().CacheEvictions
	data := make([]byte, 40)
	c.Put("a", data)
	time.Sleep(5 * time.Millisecond) // distinct mtimes order the LRU
	c.Put("b", data)
	time.Sleep(5 * time.Millisecond)
	if _, ok := c.Get("a"); !ok { // touch a, making b oldest
		t.Fatal("entry a missing before budget exceeded")
	}
	time.Sleep(5 * time.Millisecond)
	c.Put("c", data) // 120 bytes > 100: one eviction, and it must be b
	if d := Stats().CacheEvictions - before; d != 1 {
		t.Fatalf("CacheEvictions moved by %d, want 1", d)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU evicted the wrong entry: b (oldest) survived")
	}
	for _, key := range []string{"a", "c"} {
		if _, ok := c.Get(key); !ok {
			t.Fatalf("entry %s evicted although recently used", key)
		}
	}
}

// TestOptionErrors pins the kind-scoped option contract: unread keys and
// malformed values fail fast at Check, before any network I/O.
func TestOptionErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*model.Workload)
		want string
	}{
		{"empty path", func(w *model.Workload) { w.Path = "" }, "needs a path"},
		{"non-http path", func(w *model.Workload) { w.Path = "/var/traces" }, "needs an http(s) URL"},
		{"unknown option", func(w *model.Workload) { w.SetOption("cache_gb", "1") }, `does not read option(s) cache_gb`},
		{"bad cache_mb", func(w *model.Workload) { w.SetOption(OptCacheMB, "lots") }, "non-negative integer mebibyte budget"},
		{"negative cache_mb", func(w *model.Workload) { w.SetOption(OptCacheMB, "-1") }, "non-negative integer mebibyte budget"},
		{"bad fetch_timeout", func(w *model.Workload) { w.SetOption(OptFetchTimeout, "fast") }, "positive duration"},
		{"zero retries", func(w *model.Workload) { w.SetOption(OptRetries, "0") }, "at least 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := model.Workload{Kind: "trace-obj", VMs: 5, Hours: 2, Path: "http://store.example/traces"}
			tc.mut(&w)
			err := Source{}.Check(w)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Check err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestRetryPolicyDeterministic pins the backoff shape the fetcher uses
// (the shared policy keyed by object name): pure in its inputs, bounded by
// Max, and non-trivial across attempts.
func TestRetryPolicyDeterministic(t *testing.T) {
	p := backoff.Policy{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Seed: 7}
	for attempt := 0; attempt < 6; attempt++ {
		a := p.Delay(attempt, backoff.Key("obj"))
		b := p.Delay(attempt, backoff.Key("obj"))
		if a != b {
			t.Fatalf("Delay(obj, %d) not deterministic: %v vs %v", attempt, a, b)
		}
		if a <= 0 || a > p.Max {
			t.Fatalf("Delay(obj, %d) = %v outside (0, %v]", attempt, a, p.Max)
		}
	}
	if p.Delay(1, backoff.Key("obj-a")) == p.Delay(1, backoff.Key("obj-b")) {
		t.Fatal("jitter ignores the object name")
	}
}

// TestSeedInvariant pins the capability: recorded object-store traces
// ignore the seed, exactly like trace-dir.
func TestSeedInvariant(t *testing.T) {
	var si interface{ SeedInvariant() bool } = Source{}
	if !si.SeedInvariant() {
		t.Fatal("trace-obj must report seed invariance")
	}
}
