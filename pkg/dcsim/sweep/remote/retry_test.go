package remote_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/dcsim"
	"repro/pkg/dcsim/sweep"
	"repro/pkg/dcsim/sweep/fleet"
	"repro/pkg/dcsim/sweep/remote"
)

// TestBusyWorkerRetriedNotBuried: a worker answering 503 busy stays in
// the rotation — the run retries after the backoff instead of the worker
// being marked dead — and the sweep bytes match the local run. With every
// worker rejecting its first /run, completion itself proves no
// dead-marking: a buried fleet would fail with fleet.ErrNoWorkers.
func TestBusyWorkerRetriedNotBuried(t *testing.T) {
	g := tinyGrid()
	golden := localGolden(t, g)
	var rejected atomic.Int64
	urls := cluster(t, 2, func(i int, h http.Handler) http.Handler {
		var first atomic.Bool
		first.Store(true)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/run" && first.CompareAndSwap(true, false) {
				rejected.Add(1)
				w.Header().Set("Retry-After", "0")
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				w.Write([]byte(`{"error":{"code":"busy","message":"worker at capacity: test"}}`))
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	exec := staticExec(t, urls, fleet.WithInFlight(2),
		fleet.WithRetry(time.Millisecond, 4*time.Millisecond))
	res, err := remoteRun(t, g, exec)
	if err != nil {
		t.Fatalf("sweep against busy workers: %v", err)
	}
	if rejected.Load() != 2 {
		t.Fatalf("busy rejections = %d, want one per worker", rejected.Load())
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, data) {
		t.Fatal("busy-retry bytes differ from local x1")
	}
}

// TestServerBusyRejectsOverCapacity drives a real Server at MaxInflight 1:
// while a (big, slow) run holds the slot, further runs answer the typed
// busy 503 carrying the 1s Retry-After hint; once the slot frees, the
// worker serves again.
func TestServerBusyRejectsOverCapacity(t *testing.T) {
	srv := httptest.NewServer(&remote.Server{MaxInflight: 1})
	t.Cleanup(srv.Close)
	ctx := context.Background()

	// A cell big enough to still be in flight while the probe lands
	// (hundreds of ms), and a quick cell for the probes.
	big := sweep.Grid{
		Base: dcsim.Scenario{
			Workload:      dcsim.Workload{VMs: 100, Groups: 10, Hours: 24},
			MaxServers:    40,
			PeriodSamples: 240,
		},
		Axes: []sweep.Axis{{Field: "policy", Values: []any{"corr-aware"}}},
	}
	bigCells, err := big.Cells()
	if err != nil {
		t.Fatal(err)
	}
	quickCells, err := tinyGrid().Cells()
	if err != nil {
		t.Fatal(err)
	}
	quick := sweep.CellRun{Cell: quickCells[0], Replica: 0, SeedStride: 1}

	holdDone := make(chan error, 1)
	go func() {
		_, err := remote.RunCell(ctx, http.DefaultClient, srv.URL, sweep.CellRun{Cell: bigCells[0], SeedStride: 1})
		holdDone <- err
	}()

	// Probe until the held run occupies the slot and the busy answer shows.
	var we *remote.Error
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("never observed a busy rejection while the slot was held")
		}
		select {
		case err := <-holdDone:
			t.Fatalf("held run finished before a probe saw busy: %v", err)
		default:
		}
		info, err := remote.FetchHealth(ctx, http.DefaultClient, srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if info.Inflight == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		_, err = remote.RunCell(ctx, http.DefaultClient, srv.URL, quick)
		if !errors.As(err, &we) || we.Code != remote.CodeBusy {
			t.Fatalf("run against a full worker = %v, want typed %s", err, remote.CodeBusy)
		}
		if we.RetryAfter != time.Second {
			t.Fatalf("busy Retry-After = %v, want the server's 1s hint", we.RetryAfter)
		}
		break
	}

	if err := <-holdDone; err != nil {
		t.Fatalf("held run: %v", err)
	}
	if _, err := remote.RunCell(ctx, http.DefaultClient, srv.URL, quick); err != nil {
		t.Fatalf("run after the slot freed: %v", err)
	}
}

// TestDrainingWorkerHealthAndDecline: SetDraining flips /healthz to
// "draining" (so clients stop routing to it) and /run declines with the
// typed draining 503; clearing it restores service.
func TestDrainingWorkerHealthAndDecline(t *testing.T) {
	worker := &remote.Server{}
	srv := httptest.NewServer(worker)
	t.Cleanup(srv.Close)
	ctx := context.Background()

	if err := remote.Health(ctx, http.DefaultClient, srv.URL); err != nil {
		t.Fatalf("healthy worker: %v", err)
	}
	worker.SetDraining(true)
	info, err := remote.FetchHealth(ctx, http.DefaultClient, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != remote.StatusDraining {
		t.Fatalf("draining health status = %q", info.Status)
	}
	if err := remote.Health(ctx, http.DefaultClient, srv.URL); err == nil {
		t.Fatal("Health must fail for a draining worker: clients stop routing to it")
	}

	cells, err := tinyGrid().Cells()
	if err != nil {
		t.Fatal(err)
	}
	run := sweep.CellRun{Cell: cells[0], Replica: 0, SeedStride: 1}
	var we *remote.Error
	if _, err := remote.RunCell(ctx, http.DefaultClient, srv.URL, run); !errors.As(err, &we) || we.Code != remote.CodeDraining {
		t.Fatalf("run against draining worker = %v, want typed %s", err, remote.CodeDraining)
	}

	worker.SetDraining(false)
	if err := remote.Health(ctx, http.DefaultClient, srv.URL); err != nil {
		t.Fatalf("un-drained worker: %v", err)
	}
	if _, err := remote.RunCell(ctx, http.DefaultClient, srv.URL, run); err != nil {
		t.Fatalf("run after un-drain: %v", err)
	}
}

// TestDrainingWorkerRetiredWithoutDeath: a sweep over one draining and
// one healthy worker completes on the survivor with byte-identical
// aggregates, and the draining worker executes zero runs.
func TestDrainingWorkerRetiredWithoutDeath(t *testing.T) {
	g := tinyGrid()
	golden := localGolden(t, g)
	draining := &remote.Server{}
	draining.SetDraining(true)
	drainSrv := httptest.NewServer(draining)
	t.Cleanup(drainSrv.Close)
	healthySrv := httptest.NewServer(&remote.Server{})
	t.Cleanup(healthySrv.Close)
	exec := staticExec(t, []string{drainSrv.URL, healthySrv.URL}, fleet.WithInFlight(2),
		fleet.WithRetry(time.Millisecond, 4*time.Millisecond))
	res, err := remoteRun(t, g, exec)
	if err != nil {
		t.Fatalf("sweep with a draining worker: %v", err)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, data) {
		t.Fatal("draining-retire bytes differ from local x1")
	}
	if n := draining.Inflight(); n != 0 {
		t.Fatalf("draining worker reports %d in flight", n)
	}
}

// TestBusyRetryAfterCapped: a busy worker asking for an hour's wait
// (Retry-After: 3600) cannot stall the sweep — the wait is capped at the
// retry policy's Max — so the sweep completes well inside a 10s deadline.
func TestBusyRetryAfterCapped(t *testing.T) {
	g := tinyGrid()
	golden := localGolden(t, g)
	var rejected atomic.Bool
	urls := cluster(t, 1, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/run" && rejected.CompareAndSwap(false, true) {
				w.Header().Set("Retry-After", "3600")
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				w.Write([]byte(`{"error":{"code":"busy","message":"worker at capacity: test"}}`))
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	exec := staticExec(t, urls, fleet.WithRetry(0, 50*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := sweep.Run(ctx, g, sweep.Options{Workers: 4, Executor: exec})
	if err != nil {
		t.Fatalf("sweep behind a 1h Retry-After: %v", err)
	}
	if !rejected.Load() {
		t.Fatal("busy rejection never fired")
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, data) {
		t.Fatal("capped-busy-retry bytes differ from local x1")
	}
}
