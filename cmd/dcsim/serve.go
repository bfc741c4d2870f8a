package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"time"

	"repro/pkg/dcsim"
	"repro/pkg/dcsim/service"
	"repro/pkg/dcsim/sweep"
	"repro/pkg/dcsim/sweep/fleet"
	"repro/pkg/dcsim/sweep/remote"
)

// serveMain implements "dcsim serve": the simulation-as-a-service front
// end. It accepts sweep-grid jobs over HTTP (POST /jobs), runs them
// through a bounded queue on the executor seam — in-process by default,
// fanned out to a static "dcsim worker" list with -remote, to an elastic
// fleet with -fleet, or mixed with -local — streams per-cell progress as
// Server-Sent Events (GET /jobs/{id}/events), and exposes OpenMetrics on
// GET /metrics. A job's result is byte-identical to "dcsim sweep" on the
// same grid.
//
// With -fleet the service is also the fleet coordinator: workers started
// with "dcsim worker -register http://this-host:port" join on the same
// listener (POST /fleet/register), heartbeat, and absorb queued runs;
// workers dying mid-job have their runs stolen back and re-executed, and
// /metrics grows the dcsim_fleet_* families. The fleet starts empty: with
// no -local slots, a job that arrives before the first worker waits for
// it.
//
// SIGINT drains gracefully: submissions are rejected, queued jobs report
// cancelled, running jobs get the -drain window to finish, and the
// process exits 0.
func serveMain(args []string) {
	fs := flag.NewFlagSet("dcsim serve", flag.ExitOnError)
	var (
		listen   = fs.String("listen", ":8080", "address to serve the job API on")
		queueCap = fs.Int("queue", 16, "max jobs waiting for a run slot (submissions beyond it get 503 queue_full)")
		jobs     = fs.Int("jobs", 1, "jobs running concurrently (each fans its cells out over -workers)")
		useFleet = fs.Bool("fleet", false, "coordinate an elastic worker fleet: mount /fleet endpoints and dispatch runs over registered workers")
		drain    = fs.Duration("drain", 30*time.Second, "graceful drain window for running jobs after SIGINT")
		quiet    = fs.Bool("quiet", false, "do not log per-job lines")
	)
	d := addDispatchFlags(fs, "serve")
	fs.Parse(args)
	d.check(fs, *useFleet)
	needAtLeast("serve", "queue", *queueCap, 1)
	needAtLeast("serve", "jobs", *jobs, 1)

	reg, exec := d.setup(func(urls []string) error {
		// Health only: grids arrive later, and Submit checks each one
		// against this process's registries, not the workers'. A worker
		// that lacks a component a grid selects fails that job at the
		// first run sent to it, with unknown_component.
		return remote.Preflight(context.Background(), http.DefaultClient, urls)
	})
	if reg != nil {
		defer reg.Close()
	}
	cfg := service.Config{
		QueueCapacity: *queueCap,
		Concurrency:   *jobs,
		Workers:       d.fanOut(reg),
		Executor:      jobExecutor(d, reg, exec),
	}
	if *useFleet {
		// Only an elastic fleet has a membership to serve on /fleet and
		// export as dcsim_fleet_* metrics; a -remote list's is fixed.
		cfg.Fleet = reg
	}
	if !*quiet {
		cfg.Logf = log.Printf
	}

	mgr := service.NewManager(cfg)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("service listening on %s (queue %d, %d concurrent job(s) × %d workers)",
		ln.Addr(), *queueCap, cfg.Concurrency, cfg.Workers)
	if cfg.Fleet != nil {
		log.Printf("fleet coordinator mounted on /fleet — join workers with: dcsim worker -register http://<this-host>:%d",
			ln.Addr().(*net.TCPAddr).Port)
	}

	serveUntilInterrupt(ln, service.NewServer(mgr), func() {
		// Graceful drain: reject new jobs, cancel the queue, give running
		// jobs the -drain window. Nothing is persisted — results not
		// fetched by now are gone, and the log says exactly what was
		// dropped.
		counts := map[service.State]int{}
		for _, st := range mgr.List() {
			counts[st.State]++
		}
		log.Printf("interrupt: draining — %d job(s) running, %d queued cancelled, results not fetched will be discarded (window %s)",
			counts[service.StateRunning], counts[service.StateQueued], *drain)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		mgr.Drain(drainCtx)
		cancel()
		mgr.Close()
	})
	log.Print("drained, exiting")
}

// jobExecutor is the executor serve runs its jobs on. Over an elastic
// fleet with no -local slots it holds each run until the fleet has a
// routable member, since the fleet executor fails a run at once when it
// finds none; the wait is under the run's own context, so cancelling or
// draining the job ends it. Every other setup runs on exec as it is.
func jobExecutor(d *dispatch, reg *fleet.Registry, exec sweep.Executor) sweep.Executor {
	if !d.elastic || d.local > 0 {
		return exec
	}
	return awaitWorker{reg: reg, exec: exec}
}

// awaitWorker waits for a first routable fleet member before each run.
type awaitWorker struct {
	reg  *fleet.Registry
	exec sweep.Executor
}

// ExecuteCell implements sweep.Executor.
func (a awaitWorker) ExecuteCell(ctx context.Context, run sweep.CellRun) (*dcsim.Result, error) {
	if err := a.reg.WaitForMembers(ctx, 1); err != nil {
		return nil, err
	}
	return a.exec.ExecuteCell(ctx, run)
}
