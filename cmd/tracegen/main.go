// Command tracegen emits the synthetic datacenter utilization traces
// (Setup 2's stand-in for the proprietary dataset) through the pkg/dcsim
// workload API — either as one CSV of 5-minute means of the 5-second
// samples every run reads, or of the 5-second samples themselves (-fine),
// or with -dir as a recorded trace directory (chunked fine CSVs plus
// manifest.json) that the "trace-dir" workload kind reads back into
// simulations and sweeps, sample-identical.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/pkg/dcsim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
	var (
		kind    = flag.String("kind", "datacenter", "workload kind: datacenter or uncorrelated")
		vms     = flag.Int("vms", 40, "number of VM traces")
		groups  = flag.Int("groups", 8, "number of correlated service groups")
		hours   = flag.Int("hours", 24, "horizon in hours")
		seed    = flag.Int64("seed", 1, "generator seed")
		fine    = flag.Bool("fine", false, "emit 5-second samples instead of 5-minute means")
		out     = flag.String("o", "", "output file (default stdout)")
		dir     = flag.String("dir", "", "write a trace directory (manifest + chunked fine CSVs) the trace-dir workload kind reads, instead of one CSV")
		perFile = flag.Int("per-file", 16, "with -dir: VM columns per CSV chunk")
	)
	flag.Parse()
	// The façade treats zero workload fields as "use the default", so
	// reject degenerate values here instead of silently substituting.
	if *vms < 1 || *groups < 1 || *hours < 1 {
		log.Fatal("vms, groups, and hours must be positive")
	}
	if *dir != "" && (*out != "" || *fine) {
		log.Fatal("-dir writes a trace directory; -o and -fine do not apply")
	}

	ds, err := dcsim.GenerateTraces(dcsim.Workload{
		Kind:   *kind,
		VMs:    *vms,
		Groups: *groups,
		Hours:  *hours,
		Seed:   *seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *dir != "" {
		if err := dcsim.WriteTraceDir(*dir, ds, *perFile); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tracegen: wrote %d VMs x %d samples to %s (trace-dir)\n",
			len(ds.Fine), ds.Fine[0].Len(), *dir)
		return
	}

	series := ds.Fine
	if !*fine {
		series = make([]*dcsim.Series, len(ds.Fine))
		for i, s := range ds.Fine {
			series[i] = s.Downsample(int(5 * time.Minute / s.Interval()))
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := dcsim.WriteCSV(w, ds.Names, series); err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "tracegen: wrote %d VMs x %d samples to %s\n",
			len(series), series[0].Len(), *out)
	}
}
