package remote_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/dcsim"
	"repro/pkg/dcsim/sweep"
	"repro/pkg/dcsim/sweep/fleet"
	"repro/pkg/dcsim/sweep/remote"
)

// tinyGrid is the same fast grid the sweep engine tests use: 4 cells x 2
// replicas of a 6-VM single-hour scenario.
func tinyGrid() sweep.Grid {
	return sweep.Grid{
		Name: "tiny",
		Base: dcsim.Scenario{
			Workload:      dcsim.Workload{VMs: 6, Groups: 2, Hours: 1},
			MaxServers:    5,
			PeriodSamples: 240,
		},
		Axes: []sweep.Axis{
			{Field: "policy", Values: []any{"bfd", "corr-aware"}},
			{Field: "rescale_every", Values: []any{0, 12}},
		},
		Replicas: 2,
	}
}

// localGolden runs the grid in-process on one worker and returns the
// marshaled aggregate — the bytes every other execution mode must match.
func localGolden(t *testing.T, g sweep.Grid) []byte {
	t.Helper()
	res, err := sweep.Run(context.Background(), g, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// cluster starts n in-process workers and returns their base URLs plus a
// shutdown func. wrap, when non-nil, decorates each worker's handler
// (index-aware) for fault injection.
func cluster(t *testing.T, n int, wrap func(i int, h http.Handler) http.Handler) []string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		var h http.Handler = &remote.Server{}
		if wrap != nil {
			h = wrap(i, h)
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

// staticExec builds the executor a fixed worker list runs on, the way
// `dcsim sweep -remote` wires it: a static fleet registry under
// fleet.NewExecutor.
func staticExec(t *testing.T, urls []string, opts ...fleet.Option) *fleet.Executor {
	t.Helper()
	reg, err := fleet.NewStaticRegistry(urls)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	exec, err := fleet.NewExecutor(reg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return exec
}

// remoteRun sweeps the grid over exec with 8 engine workers — every run of
// the tiny grid in flight at once; surplus workers wait for a slot.
func remoteRun(t *testing.T, g sweep.Grid, exec *fleet.Executor) (*sweep.Result, error) {
	t.Helper()
	return sweep.Run(context.Background(), g, sweep.Options{
		Workers:  8,
		Executor: exec,
	})
}

// TestDeterminismLocalAndRemote is the PR's acceptance gate: the same grid
// marshals to the same bytes in-process at 1 worker, in-process at 8
// workers, and across 3 HTTP workers — including when one remote worker
// fails a cell-replica mid-flight and the client retries it elsewhere.
func TestDeterminismLocalAndRemote(t *testing.T) {
	g := tinyGrid()
	golden := localGolden(t, g)

	// In-process, 8 workers.
	res, err := sweep.Run(context.Background(), g, sweep.Options{Workers: 8})
	if err != nil {
		t.Fatalf("local x8: %v", err)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, data) {
		t.Fatal("local x8 bytes differ from local x1")
	}

	// 3 healthy HTTP workers.
	exec := staticExec(t, cluster(t, 3, nil))
	res, err = remoteRun(t, g, exec)
	if err != nil {
		t.Fatalf("remote x3: %v", err)
	}
	if data, _ = res.JSON(); !bytes.Equal(golden, data) {
		t.Fatal("remote x3 bytes differ from local x1")
	}

	// 3 HTTP workers, one of which kills the connection on its first
	// /run — the client must mark it dead, retry the replica on a
	// survivor, and still produce the same bytes.
	var failed atomic.Bool
	urls := cluster(t, 3, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/run" && failed.CompareAndSwap(false, true) {
				panic(http.ErrAbortHandler) // drop the connection mid-request
			}
			h.ServeHTTP(w, r)
		})
	})
	exec = staticExec(t, urls)
	res, err = remoteRun(t, g, exec)
	if err != nil {
		t.Fatalf("remote with injected failure: %v", err)
	}
	if !failed.Load() {
		t.Fatal("fault injection never fired")
	}
	if data, _ = res.JSON(); !bytes.Equal(golden, data) {
		t.Fatal("remote-with-retry bytes differ from local x1")
	}
}

// TestMixedLocalRemoteDeterminism runs the grid over one HTTP worker plus
// in-process slots and expects the same bytes again.
func TestMixedLocalRemoteDeterminism(t *testing.T) {
	g := tinyGrid()
	golden := localGolden(t, g)
	exec := staticExec(t, cluster(t, 1, nil), fleet.WithInFlight(2), fleet.WithLocalSlots(2))
	res, err := remoteRun(t, g, exec)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := res.JSON()
	if !bytes.Equal(golden, data) {
		t.Fatal("mixed-mode bytes differ from local x1")
	}
}

// TestWorkerKilledMidCellFailsOver kills one worker after its first
// successful run; the cells it would have run land on the survivor and the
// sweep still completes with identical bytes.
func TestWorkerKilledMidCellFailsOver(t *testing.T) {
	g := tinyGrid()
	golden := localGolden(t, g)
	var served atomic.Int32
	urls := cluster(t, 2, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/run" && served.Add(1) > 1 {
				panic(http.ErrAbortHandler) // the process is gone from now on
			}
			h.ServeHTTP(w, r)
		})
	})
	exec := staticExec(t, urls, fleet.WithInFlight(1))
	res, err := remoteRun(t, g, exec)
	if err != nil {
		t.Fatalf("sweep should survive one worker dying: %v", err)
	}
	if !res.Complete {
		t.Fatal("sweep incomplete after failover")
	}
	if served.Load() < 2 {
		t.Fatalf("fault injection never fired (worker 0 served %d)", served.Load())
	}
	data, _ := res.JSON()
	if !bytes.Equal(golden, data) {
		t.Fatal("failover bytes differ from local x1")
	}
}

// TestAllWorkersDown covers the two all-down shapes: dead before the sweep
// starts (no cells), and dying after one cell completed (that cell is
// preserved alongside the typed error).
func TestAllWorkersDown(t *testing.T) {
	g := tinyGrid()

	// The only worker is already dead when the sweep starts.
	closed := httptest.NewServer(&remote.Server{})
	closedURL := closed.URL
	closed.Close()
	exec := staticExec(t, []string{closedURL})
	res, err := remoteRun(t, g, exec)
	if !errors.Is(err, fleet.ErrNoWorkers) {
		t.Fatalf("err = %v, want fleet.ErrNoWorkers", err)
	}
	if res == nil || len(res.Cells) != 0 || res.Complete {
		t.Fatalf("result = %+v, want empty partial", res)
	}

	// One worker that serves exactly one run, then dies: the completed
	// cell must survive in the partial result.
	single := sweep.Grid{
		Name:     g.Name,
		Base:     g.Base,
		Axes:     []sweep.Axis{{Field: "policy", Values: []any{"bfd", "corr-aware"}}},
		Replicas: 1,
	}
	var served atomic.Int32
	urls := cluster(t, 1, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/run" && served.Add(1) > 1 {
				panic(http.ErrAbortHandler)
			}
			h.ServeHTTP(w, r)
		})
	})
	exec = staticExec(t, urls, fleet.WithInFlight(1))
	res, err = sweep.Run(context.Background(), single, sweep.Options{Workers: 1, Executor: exec})
	if !errors.Is(err, fleet.ErrNoWorkers) {
		t.Fatalf("err = %v, want fleet.ErrNoWorkers", err)
	}
	if res == nil || res.Complete {
		t.Fatal("want a partial result")
	}
	if len(res.Cells) != 1 || res.Cells[0].Index != 0 {
		t.Fatalf("completed cells = %+v, want exactly cell 0 preserved", res.Cells)
	}
}

// TestAllWorkersDownDegradesToLocalSlots: with mixed mode configured, the
// sweep completes purely locally when every worker is dead — local slots
// never die.
func TestAllWorkersDownDegradesToLocalSlots(t *testing.T) {
	g := tinyGrid()
	golden := localGolden(t, g)
	closed := httptest.NewServer(&remote.Server{})
	closedURL := closed.URL
	closed.Close()
	exec := staticExec(t, []string{closedURL}, fleet.WithLocalSlots(2))
	res, err := remoteRun(t, g, exec)
	if err != nil {
		t.Fatalf("mixed sweep should degrade to local: %v", err)
	}
	data, _ := res.JSON()
	if !bytes.Equal(golden, data) {
		t.Fatal("degraded-to-local bytes differ from local x1")
	}
}

// TestCancellationPropagatesToWorker cancels the client context mid-run
// and checks the worker observed its request context ending — the chain
// client ctx -> HTTP disconnect -> r.Context() -> simulation stop.
func TestCancellationPropagatesToWorker(t *testing.T) {
	runStarted := make(chan struct{}, 1)
	serverSawCancel := make(chan struct{}, 1)
	urls := cluster(t, 1, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/run" {
				h.ServeHTTP(w, r)
				return
			}
			select {
			case runStarted <- struct{}{}:
			default:
			}
			h.ServeHTTP(w, r)
			if r.Context().Err() != nil {
				select {
				case serverSawCancel <- struct{}{}:
				default:
				}
			}
		})
	})
	exec := staticExec(t, urls)
	// A cell big enough that the run is still in flight when the cancel
	// lands (hundreds of ms; the cancel takes microseconds).
	g := sweep.Grid{
		Base: dcsim.Scenario{
			Workload:      dcsim.Workload{VMs: 100, Groups: 10, Hours: 24},
			MaxServers:    40,
			PeriodSamples: 240,
		},
		Axes: []sweep.Axis{{Field: "policy", Values: []any{"corr-aware"}}},
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	run := sweep.CellRun{Cell: cells[0], Replica: 0, SeedStride: 1}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		_, err := exec.ExecuteCell(ctx, run)
		errCh <- err
	}()
	select {
	case <-runStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("run never reached the worker")
	}
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("client err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled ExecuteCell never returned")
	}
	select {
	case <-serverSawCancel:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never observed the request context ending")
	}
}

// TestUnknownComponentTypedError ships a cell naming a policy the worker's
// registry lacks (as an unsynchronized out-of-tree registration would) and
// expects the typed unknown_component error, no retry storm, and a worker
// that keeps serving.
func TestUnknownComponentTypedError(t *testing.T) {
	var runCalls atomic.Int32
	urls := cluster(t, 1, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/run" {
				runCalls.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	})
	exec := staticExec(t, urls)
	// Build the cell by hand: client-side validation would reject the
	// name too, which is exactly why the worker must also check — an
	// out-of-tree client registers names its workers may not have.
	sc := dcsim.New(dcsim.WithVMs(6), dcsim.WithHours(1), dcsim.WithMaxServers(5))
	sc.Policy = "martian-packing"
	run := sweep.CellRun{Cell: sweep.Cell{Index: 0, Scenario: sc}, SeedStride: 1}
	_, err := exec.ExecuteCell(context.Background(), run)
	var typed *remote.Error
	if !errors.As(err, &typed) || typed.Code != remote.CodeUnknownComponent {
		t.Fatalf("err = %v, want *Error with CodeUnknownComponent", err)
	}
	if !strings.Contains(typed.Message, "martian-packing") {
		t.Fatalf("message %q does not name the missing component", typed.Message)
	}
	if runCalls.Load() != 1 {
		t.Fatalf("deterministic failure was retried %d times", runCalls.Load())
	}
	// The worker was not marked dead: a well-formed cell still runs.
	good := sweep.CellRun{Cell: sweep.Cell{Index: 0, Scenario: dcsim.New(
		dcsim.WithVMs(6), dcsim.WithHours(1), dcsim.WithMaxServers(5))}, SeedStride: 1}
	if _, err := exec.ExecuteCell(context.Background(), good); err != nil {
		t.Fatalf("healthy cell after typed error: %v", err)
	}
}

// TestHealthAndCapabilities exercises the two GET endpoints through the
// public client helpers.
func TestHealthAndCapabilities(t *testing.T) {
	urls := cluster(t, 1, nil)
	if err := remote.Health(context.Background(), http.DefaultClient, urls[0]); err != nil {
		t.Fatalf("health: %v", err)
	}
	caps, err := remote.FetchCapabilities(context.Background(), http.DefaultClient, urls[0])
	if err != nil {
		t.Fatalf("capabilities: %v", err)
	}
	want := remote.LocalCapabilities()
	if len(caps.Policies) == 0 || len(caps.Policies) != len(want.Policies) {
		t.Fatalf("capabilities policies = %v, want %v", caps.Policies, want.Policies)
	}
	for i := range want.Policies {
		if caps.Policies[i] != want.Policies[i] {
			t.Fatalf("capabilities policies = %v, want %v", caps.Policies, want.Policies)
		}
	}
	// Preflight succeeds against a live cluster and names a dead worker.
	if err := remote.Preflight(context.Background(), http.DefaultClient, urls); err != nil {
		t.Fatalf("preflight: %v", err)
	}
	closed := httptest.NewServer(&remote.Server{})
	closedURL := closed.URL
	closed.Close()
	if err := remote.Preflight(context.Background(), http.DefaultClient, []string{urls[0], closedURL}); err == nil ||
		!strings.Contains(err.Error(), closedURL) {
		t.Fatalf("preflight = %v, want failure naming %s", err, closedURL)
	}
}

// TestPreflightGridCatchesRegistryMismatch: a worker whose capability
// listing lacks a component the grid selects fails the preflight by name,
// before any cell is shipped.
func TestPreflightGridCatchesRegistryMismatch(t *testing.T) {
	g := tinyGrid() // selects bfd and corr-aware policies
	// Worker 0 advertises a listing without corr-aware, as a worker
	// binary missing an out-of-tree registration would.
	urls := cluster(t, 2, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/capabilities" {
				h.ServeHTTP(w, r)
				return
			}
			caps := remote.LocalCapabilities()
			var kept []string
			for _, p := range caps.Policies {
				if p != "corr-aware" {
					kept = append(kept, p)
				}
			}
			caps.Policies = kept
			w.Header().Set("Content-Type", "application/json")
			if err := json.NewEncoder(w).Encode(caps); err != nil {
				t.Error(err)
			}
		})
	})
	err := remote.PreflightGrid(context.Background(), http.DefaultClient, urls, g)
	if err == nil || !strings.Contains(err.Error(), urls[0]) ||
		!strings.Contains(err.Error(), "policy corr-aware") {
		t.Fatalf("preflight = %v, want failure naming %s and policy corr-aware", err, urls[0])
	}
	// A fully capable cluster passes.
	if err := remote.PreflightGrid(context.Background(), http.DefaultClient, urls[1:], g); err != nil {
		t.Fatalf("preflight against capable worker: %v", err)
	}
}

// TestNewExecutorRejects pins the validation a -remote worker list gets
// from the static registry and the fleet executor over it. (URL
// normalization is pinned by fleet's TestStaticRegistry.)
func TestNewExecutorRejects(t *testing.T) {
	if _, err := fleet.NewStaticRegistry(nil); err == nil {
		t.Fatal("no workers must fail")
	}
	if _, err := fleet.NewStaticRegistry([]string{"  "}); err == nil {
		t.Fatal("blank URL must fail")
	}
	reg, err := fleet.NewStaticRegistry([]string{"http://x"})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if _, err := fleet.NewExecutor(reg, fleet.WithInFlight(0)); err == nil {
		t.Fatal("zero in-flight must fail")
	}
	if _, err := fleet.NewExecutor(reg, fleet.WithLocalSlots(-1)); err == nil {
		t.Fatal("negative local slots must fail")
	}
}

// Guard against goroutine leaks in the waiter-wakeup path: concurrency-
// heavy acquire/markDead interleavings must not deadlock. Run a sweep
// whose only worker dies immediately at high engine parallelism.
func TestAllDownDoesNotDeadlockManyWaiters(t *testing.T) {
	closed := httptest.NewServer(&remote.Server{})
	closedURL := closed.URL
	closed.Close()
	exec := staticExec(t, []string{closedURL}, fleet.WithInFlight(1))
	var wg sync.WaitGroup
	g := tinyGrid()
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := sweep.CellRun{Cell: cells[0], Replica: 0, SeedStride: 1}
			_, err := exec.ExecuteCell(context.Background(), run)
			if !errors.Is(err, fleet.ErrNoWorkers) {
				t.Errorf("err = %v, want fleet.ErrNoWorkers", err)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("waiters deadlocked after all workers died")
	}
}

// TestPreflightGridCatchesUnknownWorkloadKind: the recorded-trace analogue
// of the component preflight — a grid naming a workload kind a worker
// cannot source fails before any fan-out, naming the worker and the kind.
func TestPreflightGridCatchesUnknownWorkloadKind(t *testing.T) {
	urls := cluster(t, 1, nil)
	g := tinyGrid()
	g.Base.Workload.Kind = "object-store" // registered nowhere
	err := remote.PreflightGrid(context.Background(), http.DefaultClient, urls, g)
	if err == nil || !strings.Contains(err.Error(), urls[0]) ||
		!strings.Contains(err.Error(), "workload object-store") {
		t.Fatalf("preflight = %v, want failure naming %s and workload object-store", err, urls[0])
	}
	// The same cluster serves the built-in kinds.
	if err := remote.PreflightGrid(context.Background(), http.DefaultClient, urls, tinyGrid()); err != nil {
		t.Fatalf("preflight with built-in workload: %v", err)
	}

	// A worker advertising a pre-workload capability document (no
	// "workloads" array) cannot prove it serves any kind: even the
	// default one must fail the check rather than be assumed.
	legacy := cluster(t, 1, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/capabilities" {
				h.ServeHTTP(w, r)
				return
			}
			caps := remote.LocalCapabilities()
			caps.Workloads = nil
			w.Header().Set("Content-Type", "application/json")
			if err := json.NewEncoder(w).Encode(caps); err != nil {
				t.Error(err)
			}
		})
	})
	err = remote.PreflightGrid(context.Background(), http.DefaultClient, legacy, tinyGrid())
	if err == nil || !strings.Contains(err.Error(), "workload datacenter") {
		t.Fatalf("preflight against legacy listing = %v, want missing workload datacenter", err)
	}
}

// TestUnknownWorkloadKindTypedError: the worker classifies a cell naming
// an unregistered workload kind as unknown_component, exactly like any
// other registry miss — deterministic, so never retried.
func TestUnknownWorkloadKindTypedError(t *testing.T) {
	exec := staticExec(t, cluster(t, 1, nil))
	sc := dcsim.New(dcsim.WithVMs(6), dcsim.WithHours(1), dcsim.WithMaxServers(5))
	sc.Workload.Kind = "object-store"
	run := sweep.CellRun{Cell: sweep.Cell{Index: 0, Scenario: sc}, SeedStride: 1}
	_, err := exec.ExecuteCell(context.Background(), run)
	var typed *remote.Error
	if !errors.As(err, &typed) || typed.Code != remote.CodeUnknownComponent {
		t.Fatalf("err = %v, want *Error with CodeUnknownComponent", err)
	}
	if !strings.Contains(typed.Message, "object-store") {
		t.Fatalf("message %q does not name the missing workload kind", typed.Message)
	}
}

// TestHealthInfo: /healthz carries the in-flight count and the registry
// fingerprint alongside the original status field.
func TestHealthInfo(t *testing.T) {
	urls := cluster(t, 1, nil)
	hi, err := remote.FetchHealth(context.Background(), http.DefaultClient, urls[0])
	if err != nil {
		t.Fatal(err)
	}
	if hi.Status != "ok" {
		t.Fatalf("status = %q", hi.Status)
	}
	if hi.Inflight != 0 {
		t.Fatalf("idle worker inflight = %d", hi.Inflight)
	}
	if want := remote.LocalCapabilities().Fingerprint(); hi.Capabilities != want {
		t.Fatalf("capabilities fingerprint = %q, want %q", hi.Capabilities, want)
	}
}

// TestRemovedKnobsRejected pins that inputs still naming the removed
// "materialize" scenario field or "alloc_parallel" param fail loudly, with
// the name in the error, at every entry point: scenario files, grid files,
// a worker's /run, and a param on Run.
func TestRemovedKnobsRejected(t *testing.T) {
	scPath := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(scPath, []byte(`{"materialize": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, loadErr := dcsim.LoadScenario(scPath)

	_, gridErr := sweep.DecodeGrid([]byte(`{"base": {"materialize": true}}`))

	cells, err := tinyGrid().Cells()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(sweep.CellRun{Cell: cells[0], SeedStride: 1})
	if err != nil {
		t.Fatal(err)
	}
	body = bytes.Replace(body, []byte(`"scenario":{`), []byte(`"scenario":{"materialize":true,`), 1)
	srv := httptest.NewServer(&remote.Server{})
	t.Cleanup(srv.Close)
	resp, err := http.Post(srv.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rr struct{ Error *remote.Error }
	err = json.NewDecoder(resp.Body).Decode(&rr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || rr.Error == nil || rr.Error.Code != remote.CodeBadRequest {
		t.Fatalf("worker /run with materialize: status %d, error %+v; want a %s 400", resp.StatusCode, rr.Error, remote.CodeBadRequest)
	}

	sc := tinyGrid().Base
	sc.SetParam("alloc_parallel", 2)
	_, runErr := dcsim.Run(context.Background(), sc)

	for _, c := range []struct {
		surface, name string
		err           error
	}{
		{"LoadScenario", "materialize", loadErr},
		{"DecodeGrid", "materialize", gridErr},
		{"worker /run", "materialize", rr.Error},
		{"Run", "alloc_parallel", runErr},
	} {
		if c.err == nil || !strings.Contains(c.err.Error(), c.name) {
			t.Errorf("%s: err = %v, want a rejection naming %q", c.surface, c.err, c.name)
		}
	}
}

// TestCapabilitiesFingerprintStable pins the fingerprint semantics: order
// independent within a group, sensitive to membership, and a name in one
// group never collides with the same name in another.
func TestCapabilitiesFingerprintStable(t *testing.T) {
	a := remote.Capabilities{Policies: []string{"p1", "p2"}, Governors: []string{"g1"}}
	b := remote.Capabilities{Policies: []string{"p2", "p1"}, Governors: []string{"g1"}}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on registration order")
	}
	if !strings.HasPrefix(a.Fingerprint(), "sha256:") {
		t.Fatalf("fingerprint %q lacks sha256: prefix", a.Fingerprint())
	}
	c := remote.Capabilities{Policies: []string{"p1"}, Governors: []string{"g1"}}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("fingerprint ignores membership")
	}
	// The same name in different groups must hash differently.
	d := remote.Capabilities{Policies: []string{"x"}}
	e := remote.Capabilities{Governors: []string{"x"}}
	if d.Fingerprint() == e.Fingerprint() {
		t.Fatal("fingerprint collides across groups")
	}
}
