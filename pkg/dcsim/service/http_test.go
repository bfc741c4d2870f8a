package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/pkg/dcsim/sweep"
	"repro/pkg/dcsim/sweep/fleet"
	"repro/pkg/dcsim/sweep/remote"
)

// newTestService spins up a Manager + HTTP Server on httptest.
func newTestService(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	m := NewManager(cfg)
	ts := httptest.NewServer(NewServer(m))
	t.Cleanup(func() {
		ts.Close()
		m.Close()
	})
	return m, ts
}

// gridJSON renders a grid the way a client would POST it.
func gridJSON(t *testing.T, g sweep.Grid) []byte {
	t.Helper()
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// postJob submits a grid and returns the decoded Status.
func postJob(t *testing.T, baseURL string, body []byte) Status {
	t.Helper()
	resp, err := http.Post(baseURL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /jobs = %d: %s", resp.StatusCode, raw)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+st.ID {
		t.Fatalf("Location = %q, want /jobs/%s", loc, st.ID)
	}
	return st
}

// getJob fetches GET /jobs/{id}.
func getJob(t *testing.T, baseURL, id string) jobResponse {
	t.Helper()
	resp, err := http.Get(baseURL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s = %d", id, resp.StatusCode)
	}
	var jr jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	return jr
}

// waitDoneHTTP polls the status endpoint until the job is terminal.
func waitDoneHTTP(t *testing.T, baseURL, id string, want State) jobResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		jr := getJob(t, baseURL, id)
		if jr.State == want {
			return jr
		}
		if jr.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, jr.State, jr.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s over HTTP", id, want)
	return jobResponse{}
}

// fetchResult GETs /jobs/{id}/result raw bytes.
func fetchResult(t *testing.T, baseURL, id string) []byte {
	t.Helper()
	resp, err := http.Get(baseURL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s/result = %d", id, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestHTTPDeterminismLocal is the headline acceptance test: a grid
// submitted over HTTP yields byte-identical result output to `dcsim
// sweep` running the same grid in-process.
func TestHTTPDeterminismLocal(t *testing.T) {
	_, ts := newTestService(t, Config{})
	st := postJob(t, ts.URL, gridJSON(t, tinyGrid()))
	waitDoneHTTP(t, ts.URL, st.ID, StateDone)
	got := fetchResult(t, ts.URL, st.ID)
	if want := refBytes(t, tinyGrid()); !bytes.Equal(got, want) {
		t.Fatalf("HTTP result bytes differ from direct sweep (%d vs %d bytes)", len(got), len(want))
	}
	// The embedded result on GET /jobs/{id} agrees with the raw document.
	jr := getJob(t, ts.URL, st.ID)
	if jr.Result == nil || !jr.Result.Complete {
		t.Fatal("GET /jobs/{id} of a done job lacks an embedded complete result")
	}
}

// TestHTTPDeterminismMixedRemote reruns the determinism check with cells
// split between an in-process slot and a real remote worker — the
// executor seam must not perturb a single byte.
func TestHTTPDeterminismMixedRemote(t *testing.T) {
	worker := httptest.NewServer(&remote.Server{})
	defer worker.Close()
	reg, err := fleet.NewStaticRegistry([]string{worker.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	exec, err := fleet.NewExecutor(reg, fleet.WithLocalSlots(1))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestService(t, Config{Executor: exec, Workers: 3})
	st := postJob(t, ts.URL, gridJSON(t, tinyGrid()))
	waitDoneHTTP(t, ts.URL, st.ID, StateDone)
	got := fetchResult(t, ts.URL, st.ID)
	if want := refBytes(t, tinyGrid()); !bytes.Equal(got, want) {
		t.Fatalf("mixed local+remote result bytes differ from direct sweep")
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	Type string
	Data string
}

// readSSE parses an event stream until EOF.
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.Type != "" || cur.Data != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "event: "):
			cur.Type = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan SSE: %v", err)
	}
	return events
}

// TestHTTPEventsStream streams a full job: leading state snapshot,
// progress events with sane payloads, and a final done event.
func TestHTTPEventsStream(t *testing.T) {
	gate := newGateExecutor()
	m, ts := newTestService(t, Config{Executor: gate, Workers: 1})
	_ = m
	st := postJob(t, ts.URL, gridJSON(t, tinyGrid()))

	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	close(gate.release)
	events := readSSE(t, resp.Body)
	if len(events) < 2 {
		t.Fatalf("stream delivered %d events, want at least state+done", len(events))
	}
	if events[0].Type != "state" {
		t.Fatalf("first event = %q, want state", events[0].Type)
	}
	last := events[len(events)-1]
	if last.Type != "done" {
		t.Fatalf("last event = %q, want done", last.Type)
	}
	var final Status
	if err := json.Unmarshal([]byte(last.Data), &final); err != nil {
		t.Fatalf("terminal event data: %v", err)
	}
	if final.State != StateDone || final.RunsDone != final.RunsTotal {
		t.Fatalf("terminal payload = %+v", final)
	}
	for _, ev := range events {
		if ev.Type != "progress" {
			continue
		}
		var p ProgressEvent
		if err := json.Unmarshal([]byte(ev.Data), &p); err != nil {
			t.Fatalf("progress event data: %v", err)
		}
		if p.Job != st.ID || p.RunsTotal != 4 {
			t.Fatalf("bad progress payload: %+v", p)
		}
	}
}

// TestHTTPCancelMidJobSSE is the satellite acceptance test: DELETE a
// running job mid-stream; the SSE stream must terminate with a final
// "cancelled" event.
func TestHTTPCancelMidJobSSE(t *testing.T) {
	gate := newGateExecutor() // never released: the job runs until cancelled
	_, ts := newTestService(t, Config{Executor: gate, Workers: 1})
	st := postJob(t, ts.URL, gridJSON(t, tinyGrid()))

	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Wait until the stream is live (first event arrives), then cancel.
	br := bufio.NewReader(resp.Body)
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "event: state") {
		t.Fatalf("first stream line = %q, %v", line, err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", dresp.StatusCode)
	}

	events := readSSE(t, br)
	if len(events) == 0 {
		t.Fatal("no events after cancel")
	}
	last := events[len(events)-1]
	if last.Type != "cancelled" {
		t.Fatalf("last event = %q, want cancelled", last.Type)
	}
	var final Status
	if err := json.Unmarshal([]byte(last.Data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled {
		t.Fatalf("terminal payload state = %s", final.State)
	}
}

// TestHTTPMetricsEndpoint checks content type, EOF terminator, and that
// the counters reflect a served job.
func TestHTTPMetricsEndpoint(t *testing.T) {
	_, ts := newTestService(t, Config{})
	st := postJob(t, ts.URL, gridJSON(t, tinyGrid()))
	waitDoneHTTP(t, ts.URL, st.ID, StateDone)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeOpenMetrics {
		t.Fatalf("metrics Content-Type = %q, want %q", ct, ContentTypeOpenMetrics)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Fatal("metrics exposition does not end with # EOF")
	}
	if v := metricValue(t, text, "dcsim_jobs_submitted_total"); v != 1 {
		t.Fatalf("jobs_submitted = %v, want 1", v)
	}
	if v := metricValue(t, text, "dcsim_jobs_completed_total"); v != 1 {
		t.Fatalf("jobs_completed = %v, want 1", v)
	}
	if v := metricValue(t, text, "dcsim_runs_total"); v != 4 {
		t.Fatalf("runs = %v, want 4", v)
	}
}

// TestHTTPErrorCases drives every error envelope the API can produce.
func TestHTTPErrorCases(t *testing.T) {
	gate := newGateExecutor()
	m, ts := newTestService(t, Config{QueueCapacity: 1, Concurrency: 1, Executor: gate})

	readErr := func(resp *http.Response) errorBody {
		t.Helper()
		defer resp.Body.Close()
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatal(err)
		}
		return eb
	}

	// 400: body is not a grid document.
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	if eb := readErr(resp); resp.StatusCode != http.StatusBadRequest || eb.Error.Code != "bad_request" {
		t.Fatalf("malformed body: %d %q", resp.StatusCode, eb.Error.Code)
	}

	// 422: well-formed grid naming an unknown component.
	bad := tinyGrid()
	bad.Axes[0].Values = []any{"no-such-policy"}
	resp, err = http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(gridJSON(t, bad)))
	if err != nil {
		t.Fatal(err)
	}
	if eb := readErr(resp); resp.StatusCode != http.StatusUnprocessableEntity || eb.Error.Code != "bad_grid" {
		t.Fatalf("bad grid: %d %q", resp.StatusCode, eb.Error.Code)
	}

	// 404s: unknown job everywhere.
	for _, path := range []string{"/jobs/j99", "/jobs/j99/result", "/jobs/j99/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if eb := readErr(resp); resp.StatusCode != http.StatusNotFound || eb.Error.Code != "not_found" {
			t.Fatalf("GET %s: %d %q", path, resp.StatusCode, eb.Error.Code)
		}
	}

	// 409: job exists but has no result yet (gated, still running/queued).
	st := postJob(t, ts.URL, gridJSON(t, tinyGrid()))
	resp, err = http.Get(ts.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if eb := readErr(resp); resp.StatusCode != http.StatusConflict || eb.Error.Code != "no_result" {
		t.Fatalf("no result: %d %q", resp.StatusCode, eb.Error.Code)
	}

	// 503 queue_full: slot occupied by st, queue filled by one more.
	waitState(t, m, st.ID, StateRunning)
	postJob(t, ts.URL, gridJSON(t, tinyGrid()))
	resp, err = http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(gridJSON(t, tinyGrid())))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue_full response lacks Retry-After")
	}
	if eb := readErr(resp); resp.StatusCode != http.StatusServiceUnavailable || eb.Error.Code != "queue_full" {
		t.Fatalf("queue full: %d %q", resp.StatusCode, eb.Error.Code)
	}
}

// TestHTTPDrainingRejectsSubmit covers the 503 draining envelope.
func TestHTTPDrainingRejectsSubmit(t *testing.T) {
	gate := newGateExecutor()
	m, ts := newTestService(t, Config{Executor: gate})
	st := postJob(t, ts.URL, gridJSON(t, tinyGrid()))
	waitState(t, m, st.ID, StateRunning)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Drain(ctx)
	}()
	// Wait for the draining flag to flip (Drain sets it under m.mu first).
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(gridJSON(t, tinyGrid())))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && eb.Error.Code == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw draining rejection; last: %d %q", resp.StatusCode, eb.Error.Code)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(gate.release)
	<-drained
}
