package httpjson

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
)

// roundTrip answers every request in memory, with no network.
type roundTrip func(*http.Request) (*http.Response, error)

func (f roundTrip) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// FuzzCall feeds Call arbitrary reply statuses and bodies: no reply panics
// it, a status outside 2xx always gives a *StatusError carrying that
// status, and no read goes past the limit.
func FuzzCall(f *testing.F) {
	const limit = 64
	for _, seed := range []struct {
		status int
		body   string
	}{
		{200, `{"status":"ok"}`},
		{404, `{"error":{"code":"unknown_member","message":"fleet: unknown member: m1"}}`},
		{503, `{"error":{"code":"busy","message":"worker at capacity"}}`},
		{500, ``},
		{400, `{"error":{"code":"bad_req`},
		{200, `{"status":"o`},
		{502, strings.Repeat("x", 3*limit)},
		{200, `{"status":"` + strings.Repeat("x", 2*limit) + `"}`},
	} {
		f.Add(seed.status, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, status int, body []byte) {
		status = 100 + (status%900+900)%900 // any three-digit status
		reply := &countingReader{r: bytes.NewReader(body)}
		client := &http.Client{Transport: roundTrip(func(r *http.Request) (*http.Response, error) {
			return &http.Response{StatusCode: status, Header: http.Header{}, Body: io.NopCloser(reply), Request: r}, nil
		})}
		var out struct {
			Status string `json:"status"`
		}
		err := Call(context.Background(), client, http.MethodPut, "http://coordinator/fleet", map[string]int{"n": 1}, &out, limit)
		if reply.n > limit {
			t.Fatalf("read %d bytes, past the %d-byte limit", reply.n, limit)
		}
		var se *StatusError
		switch {
		case status < 200 || status > 299:
			if !errors.As(err, &se) || se.Status != status || se.Code == "" {
				t.Fatalf("status %d: error %v, want a *StatusError of that status", status, err)
			}
		case errors.As(err, &se):
			t.Fatalf("status %d: %v", status, err)
		}
	})
}
