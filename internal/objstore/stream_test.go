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
	"testing"

	"repro/internal/tracedir"
	"repro/pkg/dcsim/model"
)

// drainChunk reads n records off the stream, failing the test on any error
// — the healthy prefix of a mid-stream fault scenario.
func drainChunk(t *testing.T, r model.DatasetReader, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
}

// TestStreamMidStreamNotFound pins the streamed failure taxonomy: a chunk
// that vanishes from the store after streaming has begun surfaces as the
// same deterministic *StatusError a missing manifest reports, sticky on the
// reader, with the records before it delivered intact.
func TestStreamMidStreamNotFound(t *testing.T) {
	dir := writeRecording(t)
	srv := httptest.NewServer(&DirServer{Dir: dir})
	defer srv.Close()
	m, err := tracedir.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}

	r, err := Source{}.Open(context.Background(), objWorkload(t, srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	drainChunk(t, r, len(m.Files[0].Names))

	// The store loses every remaining chunk mid-stream.
	for _, f := range m.Files[1:] {
		if err := os.Remove(filepath.Join(dir, f.File)); err != nil {
			t.Fatal(err)
		}
	}
	_, err = r.Next()
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusNotFound {
		t.Fatalf("err = %v, want a 404 *StatusError", err)
	}
	if _, again := r.Next(); !errors.Is(again, err) && again.Error() != err.Error() {
		t.Fatalf("error not sticky: first %v, then %v", err, again)
	}
}

// TestStreamMidStreamETagFlip pins the changed-object path through the
// stream: a chunk whose identity flips between identify and read surfaces
// as a deterministic *ChangedError mid-stream instead of silently mixing
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

	r, err := Source{}.Open(context.Background(), objWorkload(t, srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	drainChunk(t, r, len(m.Files[0].Names))

	_, err = r.Next()
	var ce *ChangedError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ChangedError", err)
	}
	if ce.Had != `"v1"` || ce.Got != `"v2"` {
		t.Fatalf("ChangedError = %+v, want v1 -> v2", ce)
	}
}
