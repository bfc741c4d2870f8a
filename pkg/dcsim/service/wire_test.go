package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/httpjson"
	"repro/pkg/dcsim/sweep/fleet"
	"repro/pkg/dcsim/sweep/remote"
)

// TestFailureRepliesPinned pins what each JSON server of the sweep stack —
// the worker, the fleet coordinator and the job service — puts on the wire
// for a failure: the status, Content-Type application/json, and the exact
// body, which decodes strictly into the one envelope
// {"error":{"code","message"}} with both fields set.
func TestFailureRepliesPinned(t *testing.T) {
	gate := newGateExecutor()
	m := NewManager(Config{QueueCapacity: 1, Concurrency: 1, Executor: gate})
	defer m.Close()
	running, err := m.Submit(tinyGrid())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, StateRunning)
	if _, err := m.Submit(tinyGrid()); err != nil {
		t.Fatal(err)
	}
	reg := fleet.NewRegistry(fleet.Config{DefaultInterval: time.Minute})
	defer reg.Close()
	svc := NewServer(m)

	for _, c := range []struct {
		name               string
		h                  http.Handler
		method, path, body string
		status             int
		code, message      string
		retryAfter         string
	}{
		{"worker run of a bad body", &remote.Server{}, http.MethodPost, "/run", "{",
			http.StatusBadRequest, "bad_request", "decode cell run: unexpected EOF", ""},
		{"fleet heartbeat of an unknown member", fleet.NewHandler(reg), http.MethodPut, "/fleet/members/ghost", "{}",
			http.StatusNotFound, "unknown_member", "fleet: unknown member: ghost", ""},
		{"service status of an unknown job", svc, http.MethodGet, "/jobs/nope", "",
			http.StatusNotFound, "not_found", "service: no such job: nope", ""},
		{"service submit to a full queue", svc, http.MethodPost, "/jobs", string(gridJSON(t, tinyGrid())),
			http.StatusServiceUnavailable, "queue_full", "service: job queue full", "1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			c.h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
			if rec.Code != c.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, c.status, rec.Body)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}
			if ra := rec.Header().Get("Retry-After"); ra != c.retryAfter {
				t.Fatalf("Retry-After %q, want %q", ra, c.retryAfter)
			}
			var env struct {
				Error struct {
					Code    string `json:"code"`
					Message string `json:"message"`
				} `json:"error"`
			}
			dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
				t.Fatalf("body %q is not the failure envelope (%v)", rec.Body, err)
			}
			want, _ := json.Marshal(env)
			if got := rec.Body.String(); got != string(want)+"\n" {
				t.Fatalf("body %q, want %q", got, want)
			}
			if env.Error.Code != c.code || env.Error.Message != c.message {
				t.Fatalf("envelope %+v, want code %q message %q", env.Error, c.code, c.message)
			}
		})
	}
}

// longBody is a request body of size bytes, made as it is read: prefix,
// then 'a' to the end, so the JSON string it opens never closes. It counts
// the bytes read.
type longBody struct {
	prefix     string
	size, read int
}

func (b *longBody) Read(p []byte) (int, error) {
	if b.read >= b.size {
		return 0, io.EOF
	}
	n := min(len(p), b.size-b.read)
	for i := range p[:n] {
		if j := b.read + i; j < len(b.prefix) {
			p[i] = b.prefix[j]
		} else {
			p[i] = 'a'
		}
	}
	b.read += n
	return n, nil
}

// TestRequestBodiesBounded: every endpoint that decodes a request body
// stops reading at the one bound and answers 400 bad_request with the
// envelope, however long the body runs.
func TestRequestBodiesBounded(t *testing.T) {
	reg := fleet.NewRegistry(fleet.Config{DefaultInterval: time.Minute})
	defer reg.Close()
	member, err := reg.Register(fleet.RegisterRequest{URL: "http://w:1"})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{Executor: newGateExecutor()})
	defer m.Close()
	for _, c := range []struct {
		name         string
		h            http.Handler
		method, path string
	}{
		{"worker run", &remote.Server{}, http.MethodPost, "/run"},
		{"fleet register", fleet.NewHandler(reg), http.MethodPost, "/fleet/register"},
		{"fleet heartbeat", fleet.NewHandler(reg), http.MethodPut, "/fleet/members/" + member.ID},
		{"service submit", NewServer(m), http.MethodPost, "/jobs"},
	} {
		t.Run(c.name, func(t *testing.T) {
			body := &longBody{prefix: `{"url":"`, size: 32 << 20}
			rec := httptest.NewRecorder()
			c.h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, body))
			if body.read > httpjson.MaxRequestBytes+1 {
				t.Errorf("read %d bytes of a %d-byte body, past the %d-byte bound",
					body.read, body.size, httpjson.MaxRequestBytes)
			}
			var env httpjson.ErrorBody
			if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &env) != nil ||
				env.Error.Code != "bad_request" {
				t.Errorf("status %d, body %.200s; want 400 bad_request", rec.Code, rec.Body)
			}
		})
	}
}

// TestRequestBodiesHoldOneValue: every endpoint that decodes a request
// body reads exactly one JSON value. A second value or junk after it
// answers 400 bad_request with the envelope, and nothing is queued,
// registered or run; white space after it is fine.
func TestRequestBodiesHoldOneValue(t *testing.T) {
	reg := fleet.NewRegistry(fleet.Config{DefaultInterval: time.Minute})
	defer reg.Close()
	member, err := reg.Register(fleet.RegisterRequest{URL: "http://w:1"})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{Executor: newGateExecutor()})
	defer m.Close()
	grid := string(gridJSON(t, tinyGrid()))
	for _, c := range []struct {
		name               string
		h                  http.Handler
		method, path, body string
	}{
		{"worker run", &remote.Server{}, http.MethodPost, "/run", `{} {}`},
		{"fleet register", fleet.NewHandler(reg), http.MethodPost, "/fleet/register", `{"url":"http://w:2"} {"url":"http://w:3"}`},
		{"fleet heartbeat", fleet.NewHandler(reg), http.MethodPut, "/fleet/members/" + member.ID, `{} junk`},
		{"service submit of two grids", NewServer(m), http.MethodPost, "/jobs", grid + ` {"name":"second grid"}`},
		{"service submit of a grid and junk", NewServer(m), http.MethodPost, "/jobs", grid + `trailing`},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			c.h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
			var env httpjson.ErrorBody
			if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &env) != nil ||
				env.Error.Code != "bad_request" || !strings.Contains(env.Error.Message, "after the JSON value") {
				t.Errorf("status %d, body %.200s; want 400 bad_request for the data after the value", rec.Code, rec.Body)
			}
		})
	}
	if jobs := m.List(); len(jobs) != 0 {
		t.Fatalf("%d jobs queued from rejected bodies", len(jobs))
	}
	if members := reg.Members(); len(members) != 1 {
		t.Fatalf("%d fleet members after a rejected register, want 1", len(members))
	}
	rec := httptest.NewRecorder()
	NewServer(m).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(grid+"\n \t\n")))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("grid followed by white space: status %d, body %s; want 202", rec.Code, rec.Body)
	}
}
