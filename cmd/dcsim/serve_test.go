package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/pkg/dcsim/service"
	"repro/pkg/dcsim/sweep"
	"repro/pkg/dcsim/sweep/fleet"
	"repro/pkg/dcsim/sweep/remote"
)

// TestServeFleetJobWaitsForFirstWorker: "dcsim serve -fleet" with no
// -local starts with an empty fleet, and a job submitted before any worker
// registers waits for one instead of failing. Cancelling a waiting job
// (DELETE) ends it cancelled; a job still waiting when a worker joins ends
// done, with the bytes a local sweep of the grid writes.
func TestServeFleetJobWaitsForFirstWorker(t *testing.T) {
	raw, err := os.ReadFile("../../examples/grids/quick-threshold.json")
	if err != nil {
		t.Fatal(err)
	}
	g, err := sweep.DecodeGrid(raw)
	if err != nil {
		t.Fatal(err)
	}
	local, err := sweep.Run(context.Background(), g, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.JSON()
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n') // as "dcsim sweep" writes it

	// serveMain's setup for "-fleet" and no other dispatch flag.
	d := &dispatch{cmd: "serve", elastic: true, inflight: 4, fleetMiss: 3}
	reg, exec := d.setup(nil)
	t.Cleanup(reg.Close)
	mgr := service.NewManager(service.Config{
		QueueCapacity: 4,
		Concurrency:   1,
		Workers:       d.fanOut(reg),
		Executor:      jobExecutor(d, reg, exec),
		Fleet:         reg,
		Logf:          t.Logf,
	})
	t.Cleanup(mgr.Close)
	srv := httptest.NewServer(service.NewServer(mgr))
	t.Cleanup(srv.Close)

	call := func(method, path string, body []byte) []byte {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode/100 != 2 {
			t.Fatalf("%s %s: %s: %s", method, path, resp.Status, out)
		}
		return out
	}
	status := func(id string) service.Status {
		t.Helper()
		var st service.Status
		if err := json.Unmarshal(call("GET", "/jobs/"+id, nil), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	submit := func() string {
		t.Helper()
		var st service.Status
		if err := json.Unmarshal(call("POST", "/jobs", raw), &st); err != nil {
			t.Fatal(err)
		}
		return st.ID
	}
	// waitRunning returns once the job is running, and then requires it
	// to keep running, waiting for a worker, for a while.
	waitRunning := func(id string) {
		t.Helper()
		deadline := time.Now().Add(time.Minute)
		for st := status(id); st.State != service.StateRunning; st = status(id) {
			if st.State.Terminal() || time.Now().After(deadline) {
				t.Fatalf("job %s with no worker: %+v, want it running", id, st)
			}
			time.Sleep(5 * time.Millisecond)
		}
		time.Sleep(200 * time.Millisecond)
		if st := status(id); st.State != service.StateRunning || st.RunsDone != 0 {
			t.Fatalf("job %s with no worker: %+v, want it running with no run done", id, st)
		}
	}
	waitEnd := func(id string) service.Status {
		t.Helper()
		deadline := time.Now().Add(time.Minute)
		for {
			st := status(id)
			if st.State.Terminal() {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s did not end: %+v", id, st)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	cancelled := submit()
	waitRunning(cancelled)
	call("DELETE", "/jobs/"+cancelled, nil)
	if st := waitEnd(cancelled); st.State != service.StateCancelled {
		t.Fatalf("DELETE on a job waiting for a worker: %+v, want cancelled", st)
	}

	done := submit()
	waitRunning(done)
	worker := httptest.NewServer(&remote.Server{})
	t.Cleanup(worker.Close)
	if _, err := reg.Register(fleet.RegisterRequest{URL: worker.URL, IntervalMS: time.Minute.Milliseconds()}); err != nil {
		t.Fatal(err)
	}
	if st := waitEnd(done); st.State != service.StateDone {
		t.Fatalf("job after a worker joined: %+v, want done", st)
	}
	if got := call("GET", "/jobs/"+done+"/result", nil); !bytes.Equal(got, want) {
		t.Fatalf("fleet job result differs from the local sweep:\n got  %s\n want %s", got, want)
	}
}
