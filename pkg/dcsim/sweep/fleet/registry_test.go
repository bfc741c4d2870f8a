package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpjson"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRegistryLifecycle drives one member through register → beats →
// missed beats → expiry, checking the counters at each step.
func TestRegistryLifecycle(t *testing.T) {
	reg := NewRegistry(Config{MissThreshold: 2, MinInterval: time.Millisecond, Logf: t.Logf})
	defer reg.Close()
	resp, err := reg.Register(RegisterRequest{URL: "127.0.0.1:9", IntervalMS: 25, Capabilities: "sha256:x"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID == "" || resp.IntervalMS != 25 || resp.MissThreshold != 2 {
		t.Fatalf("register response = %+v", resp)
	}
	ms := reg.Members()
	if len(ms) != 1 || ms[0].State != StateAlive || ms[0].URL != "http://127.0.0.1:9" ||
		ms[0].Capabilities != "sha256:x" {
		t.Fatalf("members = %+v", ms)
	}

	// Beat faster than the interval for a while: no misses accumulate.
	for i := 0; i < 5; i++ {
		if err := reg.Heartbeat(resp.ID, HeartbeatRequest{Inflight: int64(i)}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s := reg.Stats(); s.HeartbeatMisses != 0 || s.Alive != 1 {
		t.Fatalf("stats while beating = %+v", s)
	}
	if ms := reg.Members(); ms[0].Inflight != 4 {
		t.Fatalf("last reported inflight = %d, want 4", ms[0].Inflight)
	}

	// Stop beating: 2 misses at 25ms each expire the member.
	waitFor(t, "member expiry", func() bool { return len(reg.Members()) == 0 })
	s := reg.Stats()
	if s.Expirations != 1 || s.HeartbeatMisses < 2 {
		t.Fatalf("stats after expiry = %+v", s)
	}
	if err := reg.Heartbeat(resp.ID, HeartbeatRequest{}); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("heartbeat after expiry = %v, want ErrUnknownMember", err)
	}
}

// TestReRegisterReplaces: the same URL registering again (a restarted
// worker) replaces the old record instead of duplicating it, and the old
// incarnation's context is cancelled so its runs get stolen.
func TestReRegisterReplaces(t *testing.T) {
	reg := NewRegistry(Config{DefaultInterval: time.Minute})
	defer reg.Close()
	r1, err := reg.Register(RegisterRequest{URL: "http://w:1"})
	if err != nil {
		t.Fatal(err)
	}
	reg.mu.Lock()
	oldCtx := reg.members[r1.ID].ctx
	reg.mu.Unlock()
	r2, err := reg.Register(RegisterRequest{URL: "http://w:1"})
	if err != nil {
		t.Fatal(err)
	}
	if r1.ID == r2.ID {
		t.Fatal("replacement kept the old member ID")
	}
	if ms := reg.Members(); len(ms) != 1 || ms[0].ID != r2.ID {
		t.Fatalf("members after re-register = %+v", ms)
	}
	if oldCtx.Err() == nil {
		t.Fatal("old incarnation's context not cancelled")
	}
	if s := reg.Stats(); s.Registrations != 2 || s.Expirations != 0 {
		t.Fatalf("stats = %+v: a re-registration is not an expiration", s)
	}
}

// TestDeregisterAndFailureReport: clean leave versus transport-evidence
// removal.
func TestDeregisterAndFailureReport(t *testing.T) {
	reg := NewRegistry(Config{DefaultInterval: time.Minute})
	defer reg.Close()
	r1, _ := reg.Register(RegisterRequest{URL: "http://w:1"})
	r2, _ := reg.Register(RegisterRequest{URL: "http://w:2"})
	if !reg.Deregister(r1.ID) {
		t.Fatal("deregister of a live member failed")
	}
	if reg.Deregister(r1.ID) {
		t.Fatal("second deregister should report unknown")
	}
	reg.ReportFailure(r2.ID, errors.New("connection refused"))
	if len(reg.Members()) != 0 {
		t.Fatal("members remain after deregister + failure report")
	}
	s := reg.Stats()
	if s.Expirations != 1 {
		t.Fatalf("expirations = %d: only the failure report counts, not the clean leave", s.Expirations)
	}
}

// TestHeartbeatStatusTransitions: heartbeats move a member between alive
// and draining, and a beat that names no status keeps the state it finds.
func TestHeartbeatStatusTransitions(t *testing.T) {
	reg := NewRegistry(Config{DefaultInterval: time.Minute})
	defer reg.Close()
	r, _ := reg.Register(RegisterRequest{URL: "http://w:1"})
	for _, c := range []struct {
		status, want string
	}{
		{"", StateAlive},
		{StateDraining, StateDraining},
		{"", StateDraining},
		{"ok", StateAlive},
		{"", StateAlive},
	} {
		if err := reg.Heartbeat(r.ID, HeartbeatRequest{Status: c.status}); err != nil {
			t.Fatal(err)
		}
		if ms := reg.Members(); ms[0].State != c.want {
			t.Fatalf("state = %q after a %q beat, want %q", ms[0].State, c.status, c.want)
		}
		if s := reg.Stats(); (s.Draining == 1) != (c.want == StateDraining) || s.Alive+s.Draining != 1 {
			t.Fatalf("stats = %+v after a %q beat", s, c.status)
		}
	}
}

// TestWaitForMembers blocks until enough routable members register and
// respects the context.
func TestWaitForMembers(t *testing.T) {
	reg := NewRegistry(Config{DefaultInterval: time.Minute})
	defer reg.Close()
	go func() {
		time.Sleep(20 * time.Millisecond)
		reg.Register(RegisterRequest{URL: "http://w:1"})
	}()
	if err := reg.WaitForMembers(context.Background(), 1); err != nil {
		t.Fatalf("wait for 1: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := reg.WaitForMembers(ctx, 2)
	if err == nil || !strings.Contains(err.Error(), "have 1") {
		t.Fatalf("wait for 2 = %v, want deadline error naming the shortfall", err)
	}
}

// TestRegistryClose: a closed registry rejects registrations and cancels
// every member.
func TestRegistryClose(t *testing.T) {
	reg := NewRegistry(Config{DefaultInterval: time.Minute})
	r, _ := reg.Register(RegisterRequest{URL: "http://w:1"})
	reg.mu.Lock()
	ctx := reg.members[r.ID].ctx
	reg.mu.Unlock()
	reg.Close()
	if ctx.Err() == nil {
		t.Fatal("member context survives Close")
	}
	if _, err := reg.Register(RegisterRequest{URL: "http://w:2"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after close = %v, want ErrClosed", err)
	}
}

// TestHandlerEndpoints drives the membership protocol over real HTTP.
func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry(Config{DefaultInterval: time.Minute, MissThreshold: 5})
	defer reg.Close()
	ts := httptest.NewServer(NewHandler(reg))
	defer ts.Close()

	// Register.
	body, _ := json.Marshal(RegisterRequest{URL: "http://w:1", IntervalMS: 50})
	resp, err := http.Post(ts.URL+"/fleet/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rr RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rr.ID == "" || rr.MissThreshold != 5 {
		t.Fatalf("register: status %d, response %+v", resp.StatusCode, rr)
	}

	// Heartbeat.
	hb, _ := json.Marshal(HeartbeatRequest{Status: "ok", Inflight: 2})
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/fleet/members/"+rr.ID, bytes.NewReader(hb))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat = %d", resp.StatusCode)
	}

	// Heartbeat for an unknown member: 404 with the typed envelope.
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/fleet/members/ghost", bytes.NewReader(hb))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var fe httpjson.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&fe); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || fe.Error.Code != "unknown_member" {
		t.Fatalf("ghost heartbeat: status %d, envelope %+v", resp.StatusCode, fe)
	}

	// Listing.
	resp, err = http.Get(ts.URL + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	var fs FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(fs.Workers) != 1 || fs.Workers[0].ID != rr.ID || fs.Workers[0].Inflight != 2 ||
		fs.Stats.Registrations != 1 {
		t.Fatalf("GET /fleet = %+v", fs)
	}

	// Malformed register body.
	resp, err = http.Post(ts.URL+"/fleet/register", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad register body = %d", resp.StatusCode)
	}

	// Deregister, then again.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/fleet/members/"+rr.ID, nil)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deregister = %d", resp.StatusCode)
	}
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second deregister = %d", resp.StatusCode)
	}
}

// TestAgentLifecycle runs a real Agent against a real handler: register,
// beats carrying status, drain-kick visibility, heal-by-re-registration
// after the coordinator forgets it, and deregistration on shutdown.
func TestAgentLifecycle(t *testing.T) {
	reg := NewRegistry(Config{MissThreshold: 3, MinInterval: time.Millisecond, Logf: t.Logf})
	defer reg.Close()
	ts := httptest.NewServer(NewHandler(reg))
	defer ts.Close()

	var draining atomic.Bool
	agent, err := NewAgent(AgentConfig{
		Coordinator: ts.URL,
		SelfURL:     "127.0.0.1:19999",
		Interval:    15 * time.Millisecond,
		Status: func() (string, int64) {
			if draining.Load() {
				return "draining", 1
			}
			return "ok", 0
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		agent.Run(ctx)
	}()
	waitFor(t, "agent registration", func() bool { return len(reg.Members()) == 1 })

	// A drain kick reaches the coordinator without waiting out the
	// interval's worth of beats.
	draining.Store(true)
	agent.BeatNow()
	waitFor(t, "draining state", func() bool {
		ms := reg.Members()
		return len(ms) == 1 && ms[0].State == StateDraining
	})
	draining.Store(false)

	// The coordinator forgetting the member (restart, expiry) heals by
	// re-registration on the next beat's 404.
	reg.Deregister(reg.Members()[0].ID)
	waitFor(t, "re-registration", func() bool {
		return len(reg.Members()) == 1 && reg.Stats().Registrations >= 2
	})

	// Shutdown deregisters.
	cancel()
	<-done
	waitFor(t, "deregistration on shutdown", func() bool { return len(reg.Members()) == 0 })
}

// TestAgentRetriesUntilCoordinatorUp: an agent started before its
// coordinator keeps retrying registration instead of giving up.
func TestAgentRetriesUntilCoordinatorUp(t *testing.T) {
	reg := NewRegistry(Config{DefaultInterval: time.Minute})
	defer reg.Close()
	// A listener that refuses until the real handler takes over.
	ts := httptest.NewUnstartedServer(NewHandler(reg))
	agent, err := NewAgent(AgentConfig{
		Coordinator: "127.0.0.1:1", // nothing listens here
		SelfURL:     "127.0.0.1:19998",
		Interval:    10 * time.Millisecond,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = ts
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	err = agent.Run(ctx)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run against a dead coordinator = %v, want deadline with retries", err)
	}
	ts.Close()
}

// TestNormalizeURL pins the one URL-normalization rule.
func TestNormalizeURL(t *testing.T) {
	for raw, want := range map[string]string{
		"host:8070":     "http://host:8070",
		" http://h:1/ ": "http://h:1",
		"https://h:2":   "https://h:2",
	} {
		got, err := normalizeURL(raw)
		if err != nil || got != want {
			t.Fatalf("normalizeURL(%q) = %q, %v; want %q", raw, got, err, want)
		}
	}
	if _, err := normalizeURL("  "); err == nil {
		t.Fatal("blank URL must fail")
	}
}

// TestStaticRegistry pins the fixed-member registry a -remote worker list
// runs on: URL normalization, blank and duplicate rejection by name, no
// heartbeat watchdog, and removal only on ReportFailure.
func TestStaticRegistry(t *testing.T) {
	// Scheme-less URLs normalize to http and trailing slashes drop.
	reg, err := NewStaticRegistry([]string{"host1:8070", "http://host2:8070/"})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ms := reg.Members()
	if len(ms) != 2 || ms[0].URL != "http://host1:8070" || ms[1].URL != "http://host2:8070" ||
		ms[0].State != StateAlive {
		t.Fatalf("members = %+v", ms)
	}

	for _, c := range []struct {
		urls []string
		want string
	}{
		{nil, "no worker URLs"},
		{[]string{"http://a:1", "  "}, `"  "`},
		{[]string{"a:1", "http://a:1/"}, "duplicate worker URL http://a:1"},
	} {
		if _, err := NewStaticRegistry(c.urls); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("NewStaticRegistry(%q) = %v, want an error naming %s", c.urls, err, c.want)
		}
	}

	// Static members have no watchdog: with a short default interval and
	// a one-miss threshold, three intervals pass without a miss or an
	// expiry.
	short := NewRegistry(Config{DefaultInterval: 5 * time.Millisecond, MinInterval: time.Millisecond, MissThreshold: 1})
	defer short.Close()
	if err := short.addStatic([]string{"http://w:1", "http://w:2"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * 5 * time.Millisecond)
	if s := short.Stats(); s.HeartbeatMisses != 0 || s.Expirations != 0 || s.Alive != 2 {
		t.Fatalf("static members missed beats: %+v", s)
	}

	// A transport failure still removes a static member (no timer to
	// stop), and the rest stay routable.
	id := short.Members()[0].ID
	short.ReportFailure(id, errors.New("connection refused"))
	if ms := short.Members(); len(ms) != 1 || ms[0].ID == id {
		t.Fatalf("members after failure report = %+v", ms)
	}
	if s := short.Stats(); s.Expirations != 1 {
		t.Fatalf("stats after failure report = %+v", s)
	}
	// A data-path drain flags it like any member.
	short.MarkDraining(short.Members()[0].ID)
	if s := short.Stats(); s.Draining != 1 || s.Alive != 0 {
		t.Fatalf("stats after MarkDraining = %+v", s)
	}
}

// TestRegisterRejectsBadBodies: an unknown status or an interval whose
// watchdog deadline would overflow is a 400 bad_request, on register and
// heartbeat alike, and a rejected heartbeat changes nothing.
func TestRegisterRejectsBadBodies(t *testing.T) {
	reg := NewRegistry(Config{DefaultInterval: time.Minute})
	defer reg.Close()
	ts := httptest.NewServer(NewHandler(reg))
	defer ts.Close()
	do := func(method, path, body string) (int, httpjson.ErrorBody) {
		t.Helper()
		req, _ := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var fe httpjson.ErrorBody
		json.NewDecoder(resp.Body).Decode(&fe)
		return resp.StatusCode, fe
	}
	for _, body := range []string{
		`{"url":"http://w:1","status":"zombie"}`,
		`{"url":"http://w:1","heartbeat_interval_ms":9223372036854775807}`,
		`{"url":"http://w:1","heartbeat_interval_ms":9223372036854}`,
	} {
		if status, fe := do(http.MethodPost, "/fleet/register", body); status != http.StatusBadRequest ||
			fe.Error.Code != "bad_request" {
			t.Fatalf("register %s: status %d, envelope %+v; want 400 bad_request", body, status, fe)
		}
	}
	if len(reg.Members()) != 0 {
		t.Fatalf("rejected registrations admitted members: %+v", reg.Members())
	}

	r, err := reg.Register(RegisterRequest{URL: "http://w:1"})
	if err != nil {
		t.Fatal(err)
	}
	if status, fe := do(http.MethodPut, "/fleet/members/"+r.ID, `{"status":"zombie"}`); status != http.StatusBadRequest ||
		fe.Error.Code != "bad_request" {
		t.Fatalf("heartbeat with unknown status: status %d, envelope %+v; want 400 bad_request", status, fe)
	}
	if status, fe := do(http.MethodPut, "/fleet/members/ghost", `{"status":"zombie"}`); status != http.StatusBadRequest {
		t.Fatalf("ghost heartbeat with unknown status: status %d, envelope %+v; want 400 (the body is wrong first)", status, fe)
	}
	if ms := reg.Members(); len(ms) != 1 || ms[0].State != StateAlive {
		t.Fatalf("rejected heartbeat changed the member: %+v", ms)
	}
}
