// Command dcsim runs one Setup-2 datacenter consolidation simulation
// through the public pkg/dcsim façade: a synthetic day of traces, a
// placement policy and frequency governor selected by registry name, and
// Table-II-style results. Scenarios can also be loaded from JSON files
// (-scenario), and -progress streams per-period metrics while the run is in
// flight; Ctrl-C cancels the run and prints the partial result.
//
// The sweep subcommand ("dcsim sweep -grid file.json") fans a whole grid of
// scenarios out over a worker pool and writes aggregate JSON and CSV
// reports; see cmd/dcsim/sweep.go and examples/grids/. With -remote the
// grid fans out to HTTP workers instead — each one a "dcsim worker
// -listen addr" process — with byte-identical aggregates either way; the
// worker subcommand serves health, capability listing, and cell execution
// (see pkg/dcsim/sweep/remote). With -fleet the worker set is elastic:
// workers join with "dcsim worker -register", heartbeat, and may come and
// go mid-sweep — joiners absorb queued runs, the runs of dead workers are
// stolen back and re-executed — still with byte-identical aggregates (see
// pkg/dcsim/sweep/fleet).
//
// The serve subcommand ("dcsim serve -listen addr") runs the long-lived
// simulation service: a job queue accepting sweep grids over HTTP,
// Server-Sent-Events progress streaming, and an OpenMetrics exporter (see
// cmd/dcsim/serve.go and pkg/dcsim/service).
//
// The objserve subcommand ("dcsim objserve -dir recording") serves a
// recorded trace directory as a minimal static object store — strong
// ETags, HEAD and GET, optional transient-fault injection — which is the
// protocol surface the diskless "trace-obj" workload kind consumes (see
// cmd/dcsim/objserve.go).
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/pkg/dcsim"
)

func main() {
	log.SetFlags(0)
	log.SetOutput(prefixOnce{os.Stderr})
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		sweepMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		workerMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "objserve" {
		objserveMain(os.Args[2:])
		return
	}
	def := dcsim.DefaultScenario()
	var (
		scenario  = flag.String("scenario", "", "JSON scenario file (explicitly set flags override it)")
		workload  = flag.String("workload", def.Workload.Kind, "workload kind: "+strings.Join(dcsim.WorkloadKinds(), ", "))
		tracedir  = flag.String("tracedir", "", "recorded trace directory for the trace-dir workload kind (see tracegen -dir)")
		objstore  = flag.String("objstore", "", "http(s) bucket/prefix URL for the trace-obj workload kind (see dcsim objserve)")
		policy    = flag.String("policy", def.Policy, "placement policy: "+strings.Join(dcsim.Policies(), ", "))
		governor  = flag.String("governor", "", "frequency governor: "+strings.Join(dcsim.Governors(), ", ")+" (default pairs with the policy)")
		predictor = flag.String("predictor", def.Predictor, "predictor: "+strings.Join(dcsim.Predictors(), ", "))
		vms       = flag.Int("vms", def.Workload.VMs, "number of VM traces")
		groups    = flag.Int("groups", def.Workload.Groups, "number of correlated service groups")
		servers   = flag.Int("servers", def.MaxServers, "server pool size")
		hours     = flag.Int("hours", def.Workload.Hours, "trace horizon in hours")
		seed      = flag.Int64("seed", def.Workload.Seed, "trace generator seed")
		dynamic   = flag.Bool("dynamic", false, "rescale v/f every minute instead of per period")
		pctl      = flag.Float64("pctl", def.Pctl, "reference percentile for û (1 = peak)")
		periods   = flag.Bool("periods", false, "print the per-period breakdown")
		progress  = flag.Bool("progress", false, "stream per-period metrics while running")
	)
	var wopts kvFlag
	flag.Var(&wopts, "wopt", "workload backend option key=value, repeatable (e.g. -wopt cache_mb=64; see the kind's docs)")
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	sc := dcsim.DefaultScenario()
	if *scenario != "" {
		var err error
		sc, err = dcsim.LoadScenario(*scenario)
		if err != nil {
			log.Fatal(err)
		}
	}
	// A flag applies when set explicitly, or — without a scenario file —
	// through its default (which mirrors DefaultScenario, so -help shows
	// the real values).
	use := func(name string) bool { return set[name] || *scenario == "" }
	if use("workload") {
		sc.Workload.Kind = *workload
	}
	if err := applyRecording(&sc.Workload, set["workload"], *tracedir, *objstore, wopts); err != nil {
		log.Fatal(err)
	}
	if use("policy") {
		sc.Policy = *policy
	}
	switch {
	case set["governor"]:
		sc.Governor = *governor
	case set["policy"] || *scenario == "":
		// Clear the governor so Normalized re-pairs it with the chosen
		// policy (eqn4 for corr-aware, worst-case for the baselines).
		sc.Governor = ""
	}
	if use("predictor") {
		sc.Predictor = *predictor
	}
	if use("vms") {
		sc.Workload.VMs = *vms
	}
	if use("groups") {
		sc.Workload.Groups = *groups
	}
	if use("servers") {
		sc.MaxServers = *servers
	}
	if use("hours") {
		sc.Workload.Hours = *hours
	}
	if use("seed") {
		sc.Workload.Seed = *seed
	}
	if use("pctl") {
		sc.Pctl = *pctl
	}
	if set["dynamic"] || *scenario == "" {
		if *dynamic {
			sc.RescaleEvery = 12
		} else {
			sc.RescaleEvery = 0
		}
	}
	// Echo (and run) the effective configuration: a sparse scenario's
	// unset fields are filled with their defaults.
	sc = sc.Normalized()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var obs []dcsim.Observer
	if *progress {
		obs = append(obs, dcsim.PeriodFunc(func(p dcsim.Period) {
			fmt.Printf("period %3d  active=%2d  energy=%.1f kJ  maxViol=%.1f%%  migrations=%d\n",
				p.Period, p.ActiveServers, p.EnergyJ/1000, p.MaxViolationPct, p.Migrations)
		}))
	}

	res, err := dcsim.Run(ctx, sc, obs...)
	if err != nil {
		if res == nil {
			log.Fatal(err)
		}
		fmt.Printf("run stopped early (%v); partial result over %d periods:\n", err, len(res.Periods))
	}
	mode := "static"
	if sc.RescaleEvery > 0 {
		mode = "dynamic"
	}
	fmt.Printf("policy=%s governor=%s mode=%s vms=%d servers<=%d horizon=%dh seed=%d\n",
		res.Policy, res.Governor, mode, sc.Workload.VMs, sc.MaxServers, sc.Workload.Hours, sc.Workload.Seed)
	fmt.Printf("energy          %.1f kJ (mean %.0f W)\n", res.EnergyJ/1000, res.MeanPowerW)
	fmt.Printf("max violations  %.1f %%\n", res.MaxViolationPct)
	fmt.Printf("mean violations %.1f %%\n", res.MeanViolationPct)
	fmt.Printf("mean active     %.1f servers\n", res.MeanActive)
	fmt.Printf("migrations      %d\n", res.TotalMigrations)
	if *periods {
		t := dcsim.NewTable("period", "active", "energy (kJ)", "max viol (%)")
		for _, p := range res.Periods {
			t.AddRow(fmt.Sprint(p.Period), fmt.Sprint(p.ActiveServers),
				fmt.Sprintf("%.1f", p.EnergyJ/1000), fmt.Sprintf("%.1f", p.MaxViolationPct))
		}
		fmt.Print(t)
	}
}

// prefixOnce writes each log line with exactly one leading "dcsim: ": the
// façade's errors already carry it, the command's own messages do not.
type prefixOnce struct{ w io.Writer }

// Write implements io.Writer; log hands it one whole line per call.
func (p prefixOnce) Write(line []byte) (int, error) {
	const prefix = "dcsim: "
	out := line
	if !bytes.HasPrefix(line, []byte(prefix)) {
		out = append([]byte(prefix), line...)
	}
	if _, err := p.w.Write(out); err != nil {
		return 0, err
	}
	return len(line), nil
}

// serveUntilInterrupt serves h on ln until the listener fails, which is
// fatal, or SIGINT arrives. On SIGINT it runs drain, when set, while the
// listener still answers, then shuts the server down, closing it if the
// shutdown takes more than 2 s.
func serveUntilInterrupt(ln net.Listener, h http.Handler, drain func()) {
	srv := &http.Server{Handler: h}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
		return
	case <-ctx.Done():
	}
	if drain != nil {
		drain()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v", err)
		srv.Close()
	}
}
