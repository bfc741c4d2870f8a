package objstore

import (
	"context"
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

	"repro/internal/tracedir"
)

// TestStreamMidStreamNotFound pins the failure taxonomy partway through a
// load: a chunk that vanishes from the store after the load has read the
// first one surfaces from Load as the same deterministic *StatusError a
// missing manifest reports.
func TestStreamMidStreamNotFound(t *testing.T) {
	dir := writeRecording(t)
	m, err := tracedir.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	inner := &DirServer{Dir: dir}
	var lost atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(w, r)
		// The store loses every remaining chunk once the first is read.
		if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, m.Files[0].File) && !lost.Swap(true) {
			for _, f := range m.Files[1:] {
				if err := os.Remove(filepath.Join(dir, f.File)); err != nil {
					t.Error(err)
				}
			}
		}
	}))
	defer srv.Close()

	_, err = Source{}.Load(context.Background(), objWorkload(t, srv.URL))
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusNotFound {
		t.Fatalf("err = %v, want a 404 *StatusError", err)
	}
	if !lost.Load() || !strings.HasSuffix(se.URL, m.Files[1].File) {
		t.Fatalf("Load failed on %s, want the second chunk after reading the first", se.URL)
	}
}

// TestStreamMidStreamETagFlip pins the changed-object path partway through
// a load: a chunk whose identity flips between identify and read surfaces
// from Load as a deterministic *ChangedError instead of silently mixing
// object versions.
func TestStreamMidStreamETagFlip(t *testing.T) {
	dir := writeRecording(t)
	m, err := tracedir.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	inner := &DirServer{Dir: dir}
	flip := m.Files[1].File
	body := strings.Repeat("x", 64)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, flip) {
			inner.ServeHTTP(w, r)
			return
		}
		if r.Method == http.MethodHead {
			w.Header().Set("ETag", `"v1"`)
			w.Header().Set("Content-Length", fmt.Sprint(len(body)))
			return
		}
		w.Header().Set("ETag", `"v2"`)
		io.WriteString(w, body)
	}))
	defer srv.Close()

	_, err = Source{}.Load(context.Background(), objWorkload(t, srv.URL))
	var ce *ChangedError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ChangedError", err)
	}
	if ce.Had != `"v1"` || ce.Got != `"v2"` || !strings.HasSuffix(ce.URL, flip) {
		t.Fatalf("ChangedError = %+v, want %s v1 -> v2", ce, flip)
	}
}
