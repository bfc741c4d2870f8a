package objstore

import (
	"context"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/tracedir"
	"repro/pkg/dcsim/model"
)

// Option keys the "trace-obj" kind reads; anything else is rejected the
// same way an unread scenario param is.
const (
	// OptCacheDir overrides the local chunk-cache directory ("" keeps the
	// default under the OS temp dir; "off" disables caching).
	OptCacheDir = "cache_dir"
	// OptCacheMB bounds the chunk cache in mebibytes (0 = unbounded).
	OptCacheMB = "cache_mb"
	// OptFetchTimeout bounds each HTTP attempt (a Go duration, e.g. "10s").
	OptFetchTimeout = "fetch_timeout"
	// OptRetries sets the attempt budget per HTTP operation (>= 1).
	OptRetries = "retries"
)

// Default option values.
const (
	DefaultCacheMB = 256
)

// DefaultCacheDir is the chunk cache used when OptCacheDir is unset:
// per-user under the OS temp dir, warm across sweep runs on one machine.
func DefaultCacheDir() string {
	return filepath.Join(os.TempDir(), "dcsim-objcache")
}

// Source is the "trace-obj" workload backend: Workload.Path is an http(s)
// bucket/prefix URL holding the recorded-trace manifest+chunks layout, and
// everything past the transport — manifest validation, chunk assembly —
// is the shared tracedir path, so the datasets
// (and therefore sweep results) are byte-identical to reading the same
// recording from a local directory.
type Source struct{}

// SeedInvariant reports that recorded traces ignore Workload.Seed — the
// same capability trace-dir declares, making replicas>1 a config error.
func (Source) SeedInvariant() bool { return true }

// Check implements model.WorkloadSource: it validates the URL and options
// without touching the network or the disk, so preflight stays cheap,
// offline, and free of side effects.
func (Source) Check(w model.Workload) error {
	_, err := parseOptions(w)
	return err
}

// Load implements model.WorkloadSource: the recording read chunk by chunk
// over HTTP through tracedir.LoadFrom. Besides the dataset, the Go heap
// holds at most GOMAXPROCS chunks' bytes at a time, the chunks being
// decoded; it is the local LRU chunk cache
// (OptCacheDir/OptCacheMB) that holds whatever longer-lived copies exist,
// so the cache budget bounds what a diskless worker keeps on disk.
func (Source) Load(ctx context.Context, w model.Workload) (*model.Dataset, error) {
	o, err := parseOptions(w)
	if err != nil {
		return nil, err
	}
	f := NewFetcher(w.Path)
	f.Timeout, f.Attempts = o.timeout, o.attempts
	if o.cacheDir != "off" {
		if f.Cache, err = OpenCache(o.cacheDir, o.cacheMB<<20); err != nil {
			return nil, err
		}
	}
	return tracedir.LoadFrom(ctx, f, w)
}

// options is a validated "trace-obj" workload's fetch settings; a zero
// timeout or attempt budget selects the Fetcher default.
type options struct {
	cacheDir string // "off" disables the chunk cache
	cacheMB  int64
	timeout  time.Duration
	attempts int
}

// parseOptions validates the workload's URL and options. It builds nothing
// and creates nothing: Load turns the result into a Fetcher and its cache.
func parseOptions(w model.Workload) (options, error) {
	o := options{cacheDir: w.Option(OptCacheDir), cacheMB: DefaultCacheMB}
	if w.Path == "" {
		return o, fmt.Errorf("objstore: workload kind %q needs a path (the http(s) bucket/prefix URL of the recorded trace)", w.Kind)
	}
	u, err := url.Parse(w.Path)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return o, fmt.Errorf("objstore: workload kind %q needs an http(s) URL path, got %q", w.Kind, w.Path)
	}
	if bad := w.UnknownOptions(OptCacheDir, OptCacheMB, OptFetchTimeout, OptRetries); len(bad) > 0 {
		return o, fmt.Errorf("objstore: workload kind %q does not read option(s) %s (known: %s)",
			w.Kind, strings.Join(bad, ", "),
			strings.Join([]string{OptCacheDir, OptCacheMB, OptFetchTimeout, OptRetries}, ", "))
	}
	if o.cacheDir == "" {
		o.cacheDir = DefaultCacheDir()
	}
	if s := w.Option(OptCacheMB); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil || n < 0 {
			return o, fmt.Errorf("objstore: option %q must be a non-negative integer mebibyte budget (0 = unbounded), got %q", OptCacheMB, s)
		}
		o.cacheMB = n
	}
	if s := w.Option(OptFetchTimeout); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d <= 0 {
			return o, fmt.Errorf("objstore: option %q must be a positive duration (e.g. \"10s\"), got %q", OptFetchTimeout, s)
		}
		o.timeout = d
	}
	if s := w.Option(OptRetries); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			return o, fmt.Errorf("objstore: option %q must be an attempt budget of at least 1, got %q", OptRetries, s)
		}
		o.attempts = n
	}
	return o, nil
}
