// Package objstore implements the "trace-obj" workload backend: the
// recorded-trace manifest+chunks layout (internal/tracedir) served from an
// HTTP(S) object store instead of a local directory, so a fleet of
// stateless workers can pull recorded production traces with no shared
// filesystem. Source.Load reads a recording through tracedir.LoadFrom, the
// read path the local "trace-dir" kind shares: chunks are fetched one at
// a time, in file order, and up to GOMAXPROCS of them decode at once.
//
// Fetcher implements tracedir.ChunkFetcher over a bucket/prefix base URL:
// each object, the manifest like any chunk, is fetched by its name through
// Chunk. It is identified with a HEAD request (ETag + size), then read
// with one GET whose ETag must match the identifying one, so an object
// replaced between the two fails deterministically instead of returning
// bytes of an unknown version. Fetched objects land in a bounded,
// LRU-evicted local chunk cache keyed by (URL, ETag) — content identity,
// not mtime — so a warm cache revalidates with one HEAD per object and
// re-reads nothing, across runs and across sweep processes sharing a
// cache directory.
//
// Failures follow the sweep worker protocol's taxonomy
// (pkg/dcsim/sweep/remote): transport-level faults — connection errors,
// timeouts, truncated bodies, 5xx — are transient and retried with the
// repository's one bounded exponential backoff (internal/backoff); anything
// the store asserts about the object itself — 404, other non-5xx statuses,
// an ETag flip between HEAD and GET — is deterministic and surfaced
// untried, because retrying it would fail identically everywhere.
package objstore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/httpjson"
	"repro/pkg/dcsim/model"
)

// Fetch tuning defaults.
const (
	// DefaultAttempts bounds how often one HTTP operation is tried
	// (first attempt + transient retries).
	DefaultAttempts = 4
	// DefaultTimeout bounds each individual HTTP attempt.
	DefaultTimeout = 30 * time.Second
	// maxObjectBytes bounds any single object read, mirroring the remote
	// package's body cap: a confused or hostile store must not balloon a
	// worker's memory.
	maxObjectBytes = 256 << 20
)

// StatusError is a deterministic store response: the object store answered
// conclusively (404 not found, 403 forbidden, any non-5xx failure), so
// retrying — here or on another worker — would fail identically. It is the
// objstore analogue of the remote package's typed *Error.
type StatusError struct {
	URL    string
	Status int
	Body   string
}

// Error implements the error interface.
func (e *StatusError) Error() string {
	return fmt.Sprintf("objstore: GET %s: status %d: %s", e.URL, e.Status, e.Body)
}

// ChangedError reports an object whose ETag changed between the identify
// and the read — the recording was replaced mid-fetch. Deterministic: the
// identified version can no longer be read, so it is surfaced untried.
type ChangedError struct {
	URL      string
	Had, Got string
}

// Error implements the error interface.
func (e *ChangedError) Error() string {
	return fmt.Sprintf("objstore: %s changed mid-read (ETag %q became %q); re-run against the new recording",
		e.URL, e.Had, e.Got)
}

// TransientError wraps the last transport-level failure after the retry
// budget is exhausted: connection errors, timeouts, 5xx, truncated bodies.
// Unlike a StatusError it says nothing about the object, only about this
// attempt's path to it.
type TransientError struct {
	URL      string
	Attempts int
	Err      error
}

// Error implements the error interface.
func (e *TransientError) Error() string {
	return fmt.Sprintf("objstore: GET %s: giving up after %d attempts: %v", e.URL, e.Attempts, e.Err)
}

// Unwrap exposes the final attempt's failure.
func (e *TransientError) Unwrap() error { return e.Err }

// stats is the package's cumulative fetch/cache instrumentation, global so
// every Fetcher a sweep constructs feeds the same counters the OpenMetrics
// exporter and `dcsim sweep -v` read.
var stats struct {
	fetches, hits, evictions, retries atomic.Uint64
}

// Stats snapshots the process's cumulative object-store fetch/cache
// counters.
func Stats() model.FetchStats {
	return model.FetchStats{
		ChunkFetches:   stats.fetches.Load(),
		CacheHits:      stats.hits.Load(),
		CacheEvictions: stats.evictions.Load(),
		FetchRetries:   stats.retries.Load(),
	}
}

// Fetcher is the object-store tracedir.ChunkFetcher: objects live under
// Base ("<base>/manifest.json", "<base>/traces-000.csv", ...). Requests go
// through http.DefaultClient, each attempt bounded by Timeout, and
// transient failures back off by backoff.Policy's defaults, keyed by the
// object URL. The zero values of the tuning fields select the package
// defaults; Cache nil disables caching.
type Fetcher struct {
	// Base is the bucket/prefix URL, no trailing slash.
	Base string
	// Cache, when non-nil, holds fetched objects keyed by (URL, ETag).
	Cache *Cache
	// Attempts bounds tries per HTTP operation (0 = DefaultAttempts).
	Attempts int
	// Timeout bounds each individual HTTP attempt (0 = DefaultTimeout).
	Timeout time.Duration
}

// NewFetcher returns a Fetcher over the given base URL (trailing slashes
// trimmed) with the package defaults.
func NewFetcher(base string) *Fetcher {
	return &Fetcher{Base: strings.TrimRight(base, "/")}
}

// Chunk implements tracedir.ChunkFetcher. It leaves buf unused: every
// object arrives in a fresh slice, from the response body or the cache.
func (f *Fetcher) Chunk(ctx context.Context, name string, _ []byte) ([]byte, error) {
	return f.fetch(ctx, name)
}

// Where implements tracedir.ChunkFetcher.
func (f *Fetcher) Where(name string) string { return f.url(name) }

func (f *Fetcher) url(name string) string { return f.Base + "/" + name }

func (f *Fetcher) attempts() int {
	if f.Attempts > 0 {
		return f.Attempts
	}
	return DefaultAttempts
}

func (f *Fetcher) timeout() time.Duration {
	if f.Timeout > 0 {
		return f.Timeout
	}
	return DefaultTimeout
}

// cacheKey derives the content-addressed cache file name: the identity of
// an object version is its URL plus the store's ETag for it, so a replaced
// object gets a fresh entry and the stale one ages out by LRU.
func cacheKey(url, etag string) string {
	sum := sha256.Sum256([]byte(url + "\x00" + etag))
	return hex.EncodeToString(sum[:])
}

// fetch retrieves one whole object: identify (HEAD), serve from cache on
// identity match, otherwise read it with one GET checked against that
// identity. Only an object with an ETag is cached: without an identity a
// cached copy could be served stale forever.
func (f *Fetcher) fetch(ctx context.Context, name string) ([]byte, error) {
	url := f.url(name)
	etag, size, err := f.identify(ctx, url)
	if err != nil {
		return nil, err
	}
	if etag != "" && f.Cache != nil {
		if data, ok := f.Cache.Get(cacheKey(url, etag)); ok {
			stats.hits.Add(1)
			return data, nil
		}
	}
	res, err := f.do(ctx, http.MethodGet, url, func(res *httpResult) error {
		// The identified version arriving at a size other than the one
		// the HEAD advertised is a damaged transfer, not a new object.
		if res.status == http.StatusOK && res.etag == etag && size >= 0 && int64(len(res.body)) != size {
			return fmt.Errorf("body of %d bytes, object is %d", len(res.body), size)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if res.status != http.StatusOK {
		return nil, &StatusError{URL: url, Status: res.status, Body: httpjson.Snippet(res.body)}
	}
	if res.etag != etag {
		return nil, &ChangedError{URL: url, Had: etag, Got: res.etag}
	}
	stats.fetches.Add(1)
	if etag != "" && f.Cache != nil {
		f.Cache.Put(cacheKey(url, etag), res.body)
	}
	return res.body, nil
}

// httpResult is one completed (non-5xx) HTTP exchange.
type httpResult struct {
	status     int
	etag       string
	contentLen int64 // -1 when absent
	body       []byte
}

// do runs one HTTP operation under the retry loop: each attempt has its
// own timeout; transport failures, 5xx answers, and responses the caller's
// check classifies as damaged (a body of the wrong size) count as
// transient and back off per the policy. The first conclusive response —
// non-5xx, check passed — is returned for the caller to interpret; check
// may be nil to accept any conclusive response.
func (f *Fetcher) do(ctx context.Context, method, url string, check func(*httpResult) error) (*httpResult, error) {
	attempts := f.attempts()
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			stats.retries.Add(1)
			if err := backoff.Sleep(ctx, backoff.Policy{}.Delay(attempt-1, backoff.Key(url))); err != nil {
				return nil, err
			}
		}
		res, err := f.attempt(ctx, method, url)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
			continue
		}
		if res.status >= http.StatusInternalServerError {
			lastErr = fmt.Errorf("status %d: %s", res.status, httpjson.Snippet(res.body))
			continue
		}
		if check != nil {
			if cerr := check(res); cerr != nil {
				lastErr = cerr
				continue
			}
		}
		return res, nil
	}
	return nil, &TransientError{URL: url, Attempts: attempts, Err: lastErr}
}

// attempt performs one bounded HTTP exchange, reading the full body. It
// asks for the identity encoding: Go's transport would otherwise request
// gzip on every GET, and a store that compresses on the fly may answer
// with a different or weak ETag, which would read as a changed object.
func (f *Fetcher) attempt(ctx context.Context, method, url string) (*httpResult, error) {
	actx, cancel := context.WithTimeout(ctx, f.timeout())
	defer cancel()
	req, err := http.NewRequestWithContext(actx, method, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept-Encoding", "identity")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxObjectBytes+1))
	if err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	if len(body) > maxObjectBytes {
		return nil, fmt.Errorf("object exceeds the %d-byte bound", maxObjectBytes)
	}
	length := int64(-1)
	if cl := resp.Header.Get("Content-Length"); cl != "" {
		if n, err := strconv.ParseInt(cl, 10, 64); err == nil {
			length = n
		}
	}
	return &httpResult{
		status:     resp.StatusCode,
		etag:       resp.Header.Get("ETag"),
		contentLen: length,
		body:       body,
	}, nil
}

// identify resolves an object's current identity: its ETag (may be empty
// on stores that advertise none) and size (-1 when unknown).
func (f *Fetcher) identify(ctx context.Context, url string) (etag string, size int64, err error) {
	res, err := f.do(ctx, http.MethodHead, url, nil)
	if err != nil {
		return "", 0, err
	}
	if res.status != http.StatusOK {
		return "", 0, &StatusError{URL: url, Status: res.status, Body: httpjson.Snippet(res.body)}
	}
	return res.etag, res.contentLen, nil
}
