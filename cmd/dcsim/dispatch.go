package main

import (
	"flag"
	"log"
	"runtime"

	"repro/pkg/dcsim/sweep"
	"repro/pkg/dcsim/sweep/fleet"
	"repro/pkg/dcsim/sweep/remote"
)

// minElasticWorkers floors the default fan-out over an elastic fleet.
// Workers may join after the runs start, and pool goroutines beyond the
// fleet's free slots wait in the executor's acquire and cost nothing, so
// the pool leaves the fleet room to grow.
const minElasticWorkers = 32

// dispatch is the executor setup "dcsim sweep" and "dcsim serve" share:
// the flags that say where runs execute and how many run at once, their
// checks, and the fleet registry, executor and fan-out built from them.
// Each command keeps its own coordinator form — its -fleet flag, what it
// does with an elastic registry, and the preflight it can afford.
type dispatch struct {
	cmd     string // "sweep" or "serve", the prefix of its errors
	elastic bool   // the command's -fleet is set

	workers, local, inflight, fleetMiss int
	remotes                             string
	nocheck                             bool
}

// addDispatchFlags declares the shared dispatch flags on fs.
func addDispatchFlags(fs *flag.FlagSet, cmd string) *dispatch {
	d := &dispatch{cmd: cmd}
	fs.IntVar(&d.workers, "workers", 0, "concurrent runs, per job under serve (default GOMAXPROCS; with -remote, workers × -inflight + -local; with -fleet, that for the workers registered at start, at least 32 and GOMAXPROCS; results are identical at any count)")
	fs.StringVar(&d.remotes, "remote", "", "comma-separated worker base URLs (\"dcsim worker\" instances) to fan cells out to")
	fs.IntVar(&d.fleetMiss, "fleet-miss", 3, "with -fleet: heartbeats a worker may miss before it expires")
	fs.IntVar(&d.local, "local", 0, "with -remote/-fleet: also run up to this many cells in-process (mixed mode)")
	fs.IntVar(&d.inflight, "inflight", 4, "with -remote/-fleet: max in-flight cells per worker")
	fs.BoolVar(&d.nocheck, "no-preflight", false, "with -remote: skip the startup check of the workers (health, and under sweep the grid's components)")
	return d
}

// check rejects dispatch flags that do not apply or are out of range,
// once fs is parsed; elastic reports whether the command's -fleet is set.
func (d *dispatch) check(fs *flag.FlagSet, elastic bool) {
	d.elastic = elastic
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if d.remotes != "" && elastic {
		log.Fatalf("%s: -remote and -fleet are mutually exclusive (a static list or an elastic fleet, not both)", d.cmd)
	}
	if d.remotes == "" && !elastic {
		for _, name := range []string{"local", "inflight"} {
			if set[name] {
				log.Fatalf("%s: -%s only applies with -remote or -fleet (local runs are the default)", d.cmd, name)
			}
		}
	}
	if d.remotes == "" && set["no-preflight"] {
		log.Fatalf("%s: -no-preflight only applies with -remote", d.cmd)
	}
	if !elastic {
		for _, name := range []string{"fleet-min", "fleet-miss"} {
			if set[name] {
				log.Fatalf("%s: -%s only applies with -fleet", d.cmd, name)
			}
		}
	}
	needAtLeast(d.cmd, "workers", d.workers, 0)
	needAtLeast(d.cmd, "fleet-miss", d.fleetMiss, 1)
}

// needAtLeast fails the command when a count flag is below least.
func needAtLeast(cmd, name string, v, least int) {
	if v < least {
		log.Fatalf("%s: -%s must be at least %d, got %d", cmd, name, least, v)
	}
}

// setup builds where runs execute: with -remote, a fixed-member registry
// that must pass preflight (unless -no-preflight); with the command's
// -fleet, an empty elastic registry for the command to coordinate; and
// over either, a fleet.Executor. In-process runs alone need neither, and
// both come back nil.
func (d *dispatch) setup(preflight func(urls []string) error) (*fleet.Registry, sweep.Executor) {
	var reg *fleet.Registry
	switch {
	case d.remotes != "":
		var err error
		if reg, err = fleet.NewStaticRegistry(remote.SplitURLList(d.remotes)); err != nil {
			log.Fatal(err)
		}
		if !d.nocheck {
			if err := preflight(memberURLs(reg)); err != nil {
				log.Fatal(err)
			}
		}
	case d.elastic:
		reg = fleet.NewRegistry(fleet.Config{MissThreshold: d.fleetMiss, Logf: log.Printf})
	default:
		return nil, nil
	}
	exec, err := fleet.NewExecutor(reg, fleet.WithInFlight(d.inflight), fleet.WithLocalSlots(d.local))
	if err != nil {
		log.Fatal(err)
	}
	return reg, exec
}

// fanOut is the concurrent-run count over reg as it stands: -workers when
// set, else the one default rule both commands share. In-process (reg
// nil) that is GOMAXPROCS. Over a fixed -remote list it is the list's
// capacity, members × -inflight + -local. Over an elastic fleet it is
// that capacity for the members registered now, raised to at least
// minElasticWorkers and GOMAXPROCS.
func (d *dispatch) fanOut(reg *fleet.Registry) int {
	switch {
	case d.workers > 0:
		return d.workers
	case reg == nil:
		return runtime.GOMAXPROCS(0)
	}
	n := reg.Stats().Alive*d.inflight + d.local
	if d.elastic {
		n = max(n, minElasticWorkers, runtime.GOMAXPROCS(0))
	}
	return n
}

// memberURLs lists a registry's (normalized) member URLs in join order.
func memberURLs(reg *fleet.Registry) []string {
	var urls []string
	for _, m := range reg.Members() {
		urls = append(urls, m.URL)
	}
	return urls
}
