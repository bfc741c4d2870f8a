package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"time"

	"repro/pkg/dcsim/service"
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
// /metrics grows the dcsim_fleet_* families.
//
// SIGINT drains gracefully: submissions are rejected, queued jobs report
// cancelled, running jobs get the -drain window to finish, and the
// process exits 0.
func serveMain(args []string) {
	fs := flag.NewFlagSet("dcsim serve", flag.ExitOnError)
	var (
		listen    = fs.String("listen", ":8080", "address to serve the job API on")
		queueCap  = fs.Int("queue", 16, "max jobs waiting for a run slot (submissions beyond it get 503 queue_full)")
		jobs      = fs.Int("jobs", 1, "jobs running concurrently (each fans its cells out over -workers)")
		workers   = fs.Int("workers", 0, "concurrent runs per job (default GOMAXPROCS, the remote capacity with -remote, or 32 with -fleet)")
		remotes   = fs.String("remote", "", "comma-separated worker base URLs (\"dcsim worker\" instances) to fan cells out to")
		useFleet  = fs.Bool("fleet", false, "coordinate an elastic worker fleet: mount /fleet endpoints and dispatch runs over registered workers")
		fleetMiss = fs.Int("fleet-miss", 3, "with -fleet: heartbeats a worker may miss before it expires")
		local     = fs.Int("local", 0, "with -remote/-fleet: also run up to this many cells in-process (mixed mode)")
		inflight  = fs.Int("inflight", 4, "with -remote/-fleet: max in-flight cells per worker")
		nocheck   = fs.Bool("no-preflight", false, "with -remote: skip the worker health preflight at startup")
		drain     = fs.Duration("drain", 30*time.Second, "graceful drain window for running jobs after SIGINT")
		quiet     = fs.Bool("quiet", false, "do not log per-job lines")
	)
	fs.Parse(args)
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *remotes != "" && *useFleet {
		log.Fatal("serve: -remote and -fleet are mutually exclusive (a static list or an elastic fleet, not both)")
	}
	if *remotes == "" && !*useFleet {
		for _, name := range []string{"local", "inflight"} {
			if set[name] {
				log.Fatalf("serve: -%s only applies with -remote or -fleet (local runs are the default)", name)
			}
		}
	}
	if *remotes == "" && set["no-preflight"] {
		log.Fatal("serve: -no-preflight only applies with -remote")
	}
	if !*useFleet && set["fleet-miss"] {
		log.Fatal("serve: -fleet-miss only applies with -fleet")
	}

	cfg := service.Config{
		QueueCapacity: *queueCap,
		Concurrency:   *jobs,
		Workers:       *workers,
	}
	if !*quiet {
		cfg.Logf = log.Printf
	}
	// -remote and -fleet both dispatch over a fleet registry.
	var reg *fleet.Registry
	switch {
	case *remotes != "":
		// A fixed-member fleet, but not cfg.Fleet: there is no membership
		// to serve on /fleet or export as dcsim_fleet_* metrics.
		var err error
		if reg, err = fleet.NewStaticRegistry(remote.SplitURLList(*remotes)); err != nil {
			log.Fatal(err)
		}
		urls := memberURLs(reg)
		if !*nocheck {
			// Per-grid capability checks happen at submission time via
			// grid validation on the service side; here just make sure
			// the fleet is reachable before accepting jobs for it.
			if err := remote.Preflight(context.Background(), http.DefaultClient, urls); err != nil {
				log.Fatal(err)
			}
		}
		if cfg.Workers == 0 {
			cfg.Workers = len(urls)**inflight + *local
		}
	case *useFleet:
		reg = fleet.NewRegistry(fleet.Config{MissThreshold: *fleetMiss, Logf: log.Printf})
		cfg.Fleet = reg
		if cfg.Workers == 0 {
			// The fleet's capacity is dynamic: pick a generous fan-out (the
			// engine caps it at the job's run count, and dispatch slots
			// block cheaply while the fleet is smaller).
			cfg.Workers = 32
		}
	}
	if reg != nil {
		defer reg.Close()
		exec, err := fleet.NewExecutor(reg,
			fleet.WithInFlight(*inflight), fleet.WithLocalSlots(*local))
		if err != nil {
			log.Fatal(err)
		}
		cfg.Executor = exec
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}

	mgr := service.NewManager(cfg)
	httpSrv := &http.Server{Addr: *listen, Handler: service.NewServer(mgr)}
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

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case <-ctx.Done():
		// Graceful drain: reject new jobs, cancel the queue, give
		// running jobs the -drain window, then tear the listener down.
		// Nothing is persisted — results not fetched by now are gone,
		// and the log says exactly what was dropped.
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
		shutdownCtx, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel2()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			httpSrv.Close()
		}
		log.Print("drained, exiting")
	}
}
