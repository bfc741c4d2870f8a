package objstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DirServer is a minimal static object store over one directory: strong
// ETags (content sha256), HEAD, GET, and optional transient-fault
// injection — the protocol surface Fetcher consumes. It backs the
// "dcsim objserve" subcommand and the package's own tests; it is a flat
// namespace (no subdirectories) and a test fixture, not a production file
// server.
type DirServer struct {
	// Dir is the directory whose files are the objects.
	Dir string
	// Logf, when non-nil, logs one line per request.
	Logf func(format string, args ...any)

	failures atomic.Int64

	mu    sync.Mutex
	etags map[string]string
	seen  map[string][2]int64
}

// FailFirst arms fault injection: the next n requests answer 503.
func (s *DirServer) FailFirst(n int64) { s.failures.Store(n) }

// logf logs when a logger is configured.
func (s *DirServer) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// ServeHTTP implements http.Handler.
func (s *DirServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		fmt.Fprintln(w, "ok")
		return
	}
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.failures.Add(-1) >= 0 {
		s.logf("objserve: %s %s -> 503 (injected)", r.Method, r.URL.Path)
		http.Error(w, "injected transient fault", http.StatusServiceUnavailable)
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/")
	if name == "" || name != filepath.Base(name) {
		http.NotFound(w, r)
		return
	}
	path := filepath.Join(s.Dir, name)
	f, err := os.Open(path)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil || info.IsDir() {
		http.NotFound(w, r)
		return
	}
	etag, err := s.etag(name, path, info.Size(), info.ModTime().UnixNano())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("ETag", etag)
	s.logf("objserve: %s %s range=%q", r.Method, r.URL.Path, r.Header.Get("Range"))
	// ServeContent supplies Content-Length, Range/206 handling, and HEAD
	// semantics; the zero modtime disables its time-based validators so
	// the ETag is the only identity clients see.
	http.ServeContent(w, r, name, time.Time{}, f)
}

// etag returns the sha256-based strong ETag for a file, cached until its
// (size, mtime) changes.
func (s *DirServer) etag(name, path string, size, mtime int64) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.etags == nil {
		s.etags = map[string]string{}
		s.seen = map[string][2]int64{}
	}
	if tag, ok := s.etags[name]; ok && s.seen[name] == [2]int64{size, mtime} {
		return tag, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	tag := `"` + hex.EncodeToString(sum[:16]) + `"`
	s.etags[name] = tag
	s.seen[name] = [2]int64{size, mtime}
	return tag, nil
}
