package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/pkg/dcsim"
	"repro/pkg/dcsim/sweep"
	"repro/pkg/dcsim/sweep/fleet"
	"repro/pkg/dcsim/sweep/remote"
)

// sweepMain implements "dcsim sweep": load a grid file, fan it out over a
// worker pool — in-process by default, over a static HTTP worker list with
// -remote, over an elastic fleet of self-registering workers with -fleet,
// mixed with in-process slots via -local — and write aggregate JSON and
// CSV reports. Aggregates are byte-identical wherever the runs execute,
// however the fleet churns. Ctrl-C cancels the sweep and the reports cover
// the cells that completed.
func sweepMain(args []string) {
	fs := flag.NewFlagSet("dcsim sweep", flag.ExitOnError)
	var (
		gridPath  = fs.String("grid", "", "JSON grid file (required; see examples/grids/)")
		workload  = fs.String("workload", "", "override the grid base's workload kind (see dcsim -help for kinds)")
		tracedir  = fs.String("tracedir", "", "recorded trace directory for the trace-dir workload kind; implies -workload trace-dir when the base kind is unset or the default")
		objstore  = fs.String("objstore", "", "http(s) bucket/prefix URL for the trace-obj workload kind; implies -workload trace-obj when the base kind is unset or the default")
		verbose   = fs.Bool("v", false, "print the peak-heap and object-store fetch/cache summaries after the sweep")
		workers   = fs.Int("workers", 0, "concurrent runs (default GOMAXPROCS, or the remote capacity with -remote; aggregates are identical at any count)")
		outDir    = fs.String("out", ".", "directory the JSON and CSV reports are written to")
		progress  = fs.Bool("progress", false, "print each cell's aggregate as it completes")
		quiet     = fs.Bool("quiet", false, "suppress the summary table on stdout")
		bench     = fs.String("bench", "", "also write a timing record (runs, seconds, runs/s) to this file")
		remotes   = fs.String("remote", "", "comma-separated worker base URLs (\"dcsim worker\" instances) to fan cells out to")
		fleetAddr = fs.String("fleet", "", "address to serve the elastic-fleet coordinator on; workers join with \"dcsim worker -register\"")
		fleetMin  = fs.Int("fleet-min", 1, "with -fleet: wait for this many registered workers before sweeping")
		fleetMiss = fs.Int("fleet-miss", 3, "with -fleet: heartbeats a worker may miss before it expires")
		local     = fs.Int("local", 0, "with -remote/-fleet: also run up to this many cells in-process (mixed mode)")
		inflight  = fs.Int("inflight", 4, "with -remote/-fleet: max in-flight cells per worker")
		nocheck   = fs.Bool("no-preflight", false, "with -remote: skip the worker health + capability preflight")
	)
	var wopts kvFlag
	fs.Var(&wopts, "wopt", "workload backend option key=value, repeatable (e.g. -wopt cache_mb=64; see the kind's docs)")
	fs.Parse(args)
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *remotes != "" && *fleetAddr != "" {
		log.Fatal("sweep: -remote and -fleet are mutually exclusive (a static list or an elastic fleet, not both)")
	}
	if *remotes == "" && *fleetAddr == "" {
		for _, name := range []string{"local", "inflight"} {
			if set[name] {
				log.Fatalf("sweep: -%s only applies with -remote or -fleet (local runs are the default)", name)
			}
		}
	}
	if *remotes == "" && set["no-preflight"] {
		log.Fatal("sweep: -no-preflight only applies with -remote")
	}
	if *fleetAddr == "" {
		for _, name := range []string{"fleet-min", "fleet-miss"} {
			if set[name] {
				log.Fatalf("sweep: -%s only applies with -fleet", name)
			}
		}
	}
	if *gridPath == "" {
		fs.Usage()
		log.Fatal("sweep: -grid is required")
	}
	// Decode first, validate after the workload overrides: a grid written
	// for recorded traces may not validate until -tracedir points it at
	// the recording.
	gridData, err := os.ReadFile(*gridPath)
	if err != nil {
		log.Fatal(err)
	}
	g, err := sweep.DecodeGrid(gridData)
	if err != nil {
		log.Fatal(err)
	}
	if *workload != "" {
		g.Base.Workload.Kind = *workload
	}
	if *tracedir != "" && *objstore != "" {
		log.Fatal("sweep: -tracedir and -objstore are mutually exclusive (one recording location)")
	}
	if *tracedir != "" {
		g.Base.Workload.Path = *tracedir
		// A trace directory implies the trace-dir kind unless the grid or
		// -workload picked a non-default kind — the same rule the run
		// command applies, so a grid that spells out the default
		// "datacenter" behaves like one that omits it.
		if *workload == "" && (g.Base.Workload.Kind == "" || g.Base.Workload.Kind == "datacenter") {
			g.Base.Workload.Kind = "trace-dir"
		}
	}
	if *objstore != "" {
		// Same implication rule: the object-store URL selects its kind.
		g.Base.Workload.Path = *objstore
		if *workload == "" && (g.Base.Workload.Kind == "" || g.Base.Workload.Kind == "datacenter") {
			g.Base.Workload.Kind = "trace-obj"
		}
	}
	if err := applyWorkloadOptions(&g.Base.Workload, wopts); err != nil {
		log.Fatal("sweep: ", err)
	}
	if err := g.Validate(); err != nil {
		log.Fatal(err)
	}
	runs, err := g.Runs()
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := sweep.Options{Workers: *workers}
	// -remote and -fleet both dispatch over a fleet registry: a static
	// worker list is a fleet whose members are fixed, with no
	// registration or heartbeats.
	var reg *fleet.Registry
	members := 0
	if *remotes != "" {
		if reg, err = fleet.NewStaticRegistry(remote.SplitURLList(*remotes)); err != nil {
			log.Fatal(err)
		}
		urls := memberURLs(reg)
		members = len(urls)
		if !*nocheck {
			// Health plus capabilities: every worker must resolve every
			// component the grid selects, so registry mismatches fail
			// here instead of mid-sweep.
			if err := remote.PreflightGrid(ctx, http.DefaultClient, urls, g); err != nil {
				log.Fatal(err)
			}
		}
	}
	if *fleetAddr != "" {
		// The sweep process is the fleet coordinator: serve the membership
		// endpoints, wait for -fleet-min workers to join, and dispatch over
		// whatever the fleet holds as the sweep runs. Workers joining later
		// absorb queued runs; workers dying have theirs stolen back.
		reg = fleet.NewRegistry(fleet.Config{MissThreshold: *fleetMiss, Logf: log.Printf})
		fln, err := net.Listen("tcp", *fleetAddr)
		if err != nil {
			log.Fatal(err)
		}
		fleetSrv := &http.Server{Handler: fleet.NewHandler(reg)}
		go fleetSrv.Serve(fln)
		defer fleetSrv.Close()
		log.Printf("fleet coordinator on %s — join workers with: dcsim worker -register http://<this-host>:%d",
			fln.Addr(), fln.Addr().(*net.TCPAddr).Port)
		if err := reg.WaitForMembers(ctx, *fleetMin); err != nil {
			log.Fatal(err)
		}
		members = *fleetMin
	}
	if reg != nil {
		defer reg.Close()
		exec, err := fleet.NewExecutor(reg,
			fleet.WithInFlight(*inflight), fleet.WithLocalSlots(*local))
		if err != nil {
			log.Fatal(err)
		}
		opts.Executor = exec
		if *workers == 0 {
			opts.Workers = members**inflight + *local
			if *fleetAddr != "" {
				// The fleet can grow mid-sweep: size the fan-out past the
				// initial membership; surplus slots block cheaply.
				opts.Workers = max(opts.Workers, runtime.GOMAXPROCS(0))
			}
		}
	}
	if opts.Workers == 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if *progress {
		opts.Observers = append(opts.Observers, sweep.ObserverFunc(func(c sweep.CellResult) {
			fmt.Printf("cell %3d  %-40s energy=%.1f kJ  maxViol=%.1f%%\n",
				c.Index, c.Name, c.EnergyJ.Mean/1000, c.MaxViolationPct.Mean)
		}))
	}

	stopSampling := func() {}
	var peakHeap uint64
	if *verbose {
		stopSampling = sampleHeapPeak(&peakHeap)
	}
	start := time.Now()
	res, runErr := sweep.Run(ctx, g, opts)
	elapsed := time.Since(start)
	stopSampling()
	if runErr != nil {
		if res == nil || len(res.Cells) == 0 {
			log.Fatal(runErr)
		}
		fmt.Printf("sweep stopped early (%v); %d/%d cells completed:\n", runErr, len(res.Cells), res.TotalCells)
	}

	name := g.Name
	if name == "" {
		name = strings.TrimSuffix(filepath.Base(*gridPath), filepath.Ext(*gridPath))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	jsonPath := filepath.Join(*outDir, name+".json")
	data, err := res.JSON()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	csvPath := filepath.Join(*outDir, name+".csv")
	cf, err := os.Create(csvPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := res.WriteCSV(cf); err != nil {
		cf.Close()
		log.Fatal(err)
	}
	if err := cf.Close(); err != nil {
		log.Fatal(err)
	}

	if !*quiet {
		fmt.Print(res.Table())
		fmt.Printf("%d runs on %d workers in %.2fs (%.1f runs/s)\nreports: %s, %s\n",
			runs, opts.Workers, elapsed.Seconds(), float64(runs)/elapsed.Seconds(), jsonPath, csvPath)
	}
	if *verbose {
		// Object-store fetch/cache totals for THIS process — with -remote or
		// -fleet the chunk traffic happens on the workers, whose totals the
		// metrics exporter surfaces instead.
		st := dcsim.WorkloadFetchStats()
		fmt.Printf("objstore: %d chunk fetches, %d cache hits, %d evictions, %d retries\n",
			st.ChunkFetches, st.CacheHits, st.CacheEvictions, st.FetchRetries)
		fmt.Printf("peak heap: %.1f MiB (sampled; streamed ingest bounds this by the in-flight cells, not the dataset)\n",
			float64(peakHeap)/(1<<20))
	}

	if *bench != "" {
		rec := struct {
			Grid      string  `json:"grid"`
			Cells     int     `json:"cells"`
			Runs      int     `json:"runs"`
			Workers   int     `json:"workers"`
			Seconds   float64 `json:"seconds"`
			RunsPerS  float64 `json:"runs_per_s"`
			Completed int     `json:"completed_cells"`
		}{name, res.TotalCells, runs, opts.Workers, elapsed.Seconds(), float64(runs) / elapsed.Seconds(), len(res.Cells)}
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*bench, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	// Reports for a stopped sweep are written above so the completed
	// cells survive, but the exit status must still say "not the full
	// grid" — scripts consuming the aggregates depend on it.
	if runErr != nil {
		os.Exit(1)
	}
}

// memberURLs lists a registry's (normalized) member URLs in join order.
func memberURLs(reg *fleet.Registry) []string {
	var urls []string
	for _, m := range reg.Members() {
		urls = append(urls, m.URL)
	}
	return urls
}

// sampleHeapPeak records the high-water HeapAlloc on a short ticker until
// the returned stop func is called (which takes one final sample first).
// GC timing makes the peak approximate, but it is the quantity the
// streaming data path bounds and the smoke gate watches under GOMEMLIMIT.
func sampleHeapPeak(peak *uint64) (stop func()) {
	update := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > *peak {
			*peak = ms.HeapAlloc
		}
	}
	update()
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				update()
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		update()
	}
}
