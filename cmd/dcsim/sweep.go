package main

import (
	"context"
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
		outDir    = fs.String("out", ".", "directory the JSON and CSV reports are written to")
		progress  = fs.Bool("progress", false, "print each cell's aggregate as it completes")
		quiet     = fs.Bool("quiet", false, "suppress the summary table on stdout")
		fleetAddr = fs.String("fleet", "", "address to serve the elastic-fleet coordinator on; workers join with \"dcsim worker -register\"")
		fleetMin  = fs.Int("fleet-min", 1, "with -fleet: wait for this many registered workers before sweeping")
	)
	d := addDispatchFlags(fs, "sweep")
	var wopts kvFlag
	fs.Var(&wopts, "wopt", "workload backend option key=value, repeatable (e.g. -wopt cache_mb=64; see the kind's docs)")
	fs.Parse(args)
	d.check(fs, *fleetAddr != "")
	needAtLeast("sweep", "fleet-min", *fleetMin, 0)
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
	if err := applyRecording(&g.Base.Workload, *workload != "", *tracedir, *objstore, wopts); err != nil {
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

	reg, exec := d.setup(func(urls []string) error {
		// Health plus capabilities: every worker must resolve every
		// component the grid selects, so registry mismatches fail here
		// instead of mid-sweep.
		return remote.PreflightGrid(ctx, http.DefaultClient, urls, g)
	})
	if reg != nil {
		defer reg.Close()
	}
	if *fleetAddr != "" {
		// The sweep process is the fleet coordinator: serve the membership
		// endpoints, wait for -fleet-min workers to join, and dispatch over
		// whatever the fleet holds as the sweep runs. Workers joining later
		// absorb queued runs; workers dying have theirs stolen back.
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
	}
	opts := sweep.Options{Workers: d.fanOut(reg), Executor: exec}
	if *progress {
		opts.Progress = func(p sweep.Progress) {
			if c := p.Cell; c != nil {
				fmt.Printf("cell %3d  %-40s energy=%.1f kJ  maxViol=%.1f%%\n",
					c.Index, c.Name, c.EnergyJ.Mean/1000, c.MaxViolationPct.Mean)
			}
		}
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
		// The engine starts no more workers than there are runs.
		fmt.Printf("%d runs on %d workers in %.2fs (%.1f runs/s)\nreports: %s, %s\n",
			runs, min(opts.Workers, runs), elapsed.Seconds(), float64(runs)/elapsed.Seconds(), jsonPath, csvPath)
	}
	if *verbose {
		// Object-store fetch/cache totals for THIS process — with -remote or
		// -fleet the chunk traffic happens on the workers, whose totals the
		// metrics exporter surfaces instead.
		st := dcsim.WorkloadFetchStats()
		fmt.Printf("objstore: %d chunk fetches, %d cache hits, %d evictions, %d retries\n",
			st.ChunkFetches, st.CacheHits, st.CacheEvictions, st.FetchRetries)
		fmt.Printf("peak heap: %.1f MiB (sampled; each in-flight cell holds its whole fine-grained workload)\n",
			float64(peakHeap)/(1<<20))
	}

	// Reports for a stopped sweep are written above so the completed
	// cells survive, but the exit status must still say "not the full
	// grid" — scripts consuming the aggregates depend on it.
	if runErr != nil {
		os.Exit(1)
	}
}

// sampleHeapPeak records the high-water HeapAlloc on a short ticker until
// the returned stop func is called (which takes one final sample first).
// GC timing makes the peak approximate. It grows with the number of cells
// in flight and with each cell's dataset, since a run keeps every VM's
// fine-grained series for its whole horizon.
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
