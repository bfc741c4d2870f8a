package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/dcsim/sweep/fleet"
	"repro/pkg/dcsim/sweep/remote"
)

// TestFleetJobSurvivesWorkerDeath is the satellite acceptance test: a
// service coordinating an elastic fleet (mixed with a local slot) loses a
// worker mid-job — the connection drops while it holds dispatched runs —
// and the job still completes: the SSE stream ends with a terminal done
// event, the result bytes are identical to a direct local sweep, and the
// /metrics exposition shows the steal and the shrunken fleet.
func TestFleetJobSurvivesWorkerDeath(t *testing.T) {
	reg := fleet.NewRegistry(fleet.Config{DefaultInterval: time.Minute, Logf: t.Logf})
	t.Cleanup(reg.Close)

	// Worker 0 dies mid-cell on the first run it is handed: the response
	// never arrives and the connection drops, as a kill -9 looks from the
	// coordinator.
	var dying atomic.Int32
	dyingSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/run" {
			dying.Add(1)
			panic(http.ErrAbortHandler)
		}
		(&remote.Server{}).ServeHTTP(w, r)
	}))
	t.Cleanup(dyingSrv.Close)
	healthySrv := httptest.NewServer(&remote.Server{})
	t.Cleanup(healthySrv.Close)
	for _, u := range []string{dyingSrv.URL, healthySrv.URL} {
		if _, err := reg.Register(fleet.RegisterRequest{URL: u}); err != nil {
			t.Fatal(err)
		}
	}

	exec, err := fleet.NewExecutor(reg,
		fleet.WithInFlight(1), fleet.WithLocalSlots(1),
		fleet.WithRetry(time.Millisecond, 4*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestService(t, Config{Executor: exec, Workers: 4, Fleet: reg})

	st := postJob(t, ts.URL, gridJSON(t, tinyGrid()))
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body)
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}
	last := events[len(events)-1]
	if last.Type != "done" {
		t.Fatalf("terminal SSE event = %q, want done", last.Type)
	}
	var final Status
	if err := json.Unmarshal([]byte(last.Data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("terminal state = %q, want %q", final.State, StateDone)
	}

	got := fetchResult(t, ts.URL, st.ID)
	if want := refBytes(t, tinyGrid()); !bytes.Equal(got, want) {
		t.Fatal("fleet-under-churn result bytes differ from direct sweep")
	}

	// The fleet families tell the story: one survivor, one expiry, at
	// least one stolen run.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if v := metricValue(t, text, `dcsim_fleet_workers{state="alive"}`); v != 1 {
		t.Fatalf("alive workers = %v, want the 1 survivor", v)
	}
	if v := metricValue(t, text, `dcsim_fleet_workers{state="draining"}`); v != 0 {
		t.Fatalf("draining workers = %v, want 0", v)
	}
	if v := metricValue(t, text, "dcsim_fleet_registrations_total"); v != 2 {
		t.Fatalf("registrations = %v, want 2", v)
	}
	if v := metricValue(t, text, "dcsim_fleet_expirations_total"); v != 1 {
		t.Fatalf("expirations = %v, want 1", v)
	}
	if v := metricValue(t, text, "dcsim_fleet_runs_stolen_total"); v < 1 {
		t.Fatalf("runs stolen = %v, want at least 1", v)
	}
	// The miss counter exists even when the death came via transport
	// evidence rather than missed beats.
	metricValue(t, text, "dcsim_fleet_heartbeat_misses_total")
}
