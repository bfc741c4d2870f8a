package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"strings"
	"time"

	"repro/pkg/dcsim/sweep/fleet"
	"repro/pkg/dcsim/sweep/remote"
)

// workerMain implements "dcsim worker": serve the distributed-sweep worker
// protocol (health, capability listing, cell execution) until interrupted.
// A sweep client ("dcsim sweep -remote host:port,...") ships cell-replicas
// here; every run resolves against this process's registries, so a worker
// binary must register the same out-of-tree components as the client or
// cells naming them fail with a typed unknown_component error.
//
// With -register the worker joins an elastic fleet instead of waiting to
// be listed by URL: it announces itself to the coordinator ("dcsim sweep
// -fleet" or "dcsim serve -fleet"), heartbeats on -heartbeat, and is
// dispatched runs as long as the beats keep arriving. SIGINT flips the
// worker to draining — the coordinator stops routing to it immediately,
// in-flight runs get the -drain window — then deregisters and exits 0.
func workerMain(args []string) {
	fs := flag.NewFlagSet("dcsim worker", flag.ExitOnError)
	var (
		listen    = fs.String("listen", ":8070", "address to serve the worker protocol on")
		register  = fs.String("register", "", "coordinator base URL to join as an elastic-fleet member")
		advertise = fs.String("advertise", "", "with -register: the externally reachable base URL to announce (default derived from -listen)")
		heartbeat = fs.Duration("heartbeat", 2*time.Second, "with -register: heartbeat interval to request from the coordinator")
		maxruns   = fs.Int64("max-inflight", 0, "decline runs beyond this many in flight with 503 busy (0 = unbounded)")
		drain     = fs.Duration("drain", 10*time.Second, "graceful drain window for in-flight runs after SIGINT")
		quiet     = fs.Bool("quiet", false, "do not log per-run lines")
	)
	fs.Parse(args)
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *register == "" {
		for _, name := range []string{"advertise", "heartbeat"} {
			if set[name] {
				log.Fatalf("worker: -%s only applies with -register", name)
			}
		}
	}

	srv := &remote.Server{MaxInflight: *maxruns}
	if !*quiet {
		srv.Logf = log.Printf
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	caps := remote.LocalCapabilities()
	log.Printf("worker listening on %s (policies: %s; governors: %s; predictors: %s; servers: %s; workloads: %s)",
		ln.Addr(), strings.Join(caps.Policies, ", "), strings.Join(caps.Governors, ", "),
		strings.Join(caps.Predictors, ", "), strings.Join(caps.Servers, ", "),
		strings.Join(caps.Workloads, ", "))

	// The fleet agent announces this worker to the coordinator and keeps
	// the membership alive. Its status callback reads the server's drain
	// state, so the SIGINT below reaches the coordinator one BeatNow later.
	var agent *fleet.Agent
	var agentCancel context.CancelFunc
	var agentDone chan struct{}
	if *register != "" {
		adv := *advertise
		if adv == "" {
			adv = advertiseFromListener(ln.Addr())
		}
		agent, err = fleet.NewAgent(fleet.AgentConfig{
			Coordinator:  *register,
			SelfURL:      adv,
			Capabilities: caps.Fingerprint(),
			Interval:     *heartbeat,
			Status: func() (string, int64) {
				if srv.Draining() {
					return remote.StatusDraining, srv.Inflight()
				}
				return remote.StatusOK, srv.Inflight()
			},
			Logf: log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		var agentCtx context.Context
		agentCtx, agentCancel = context.WithCancel(context.Background())
		agentDone = make(chan struct{})
		go func() {
			defer close(agentDone)
			_ = agent.Run(agentCtx)
		}()
	}

	serveUntilInterrupt(ln, srv, func() {
		// Graceful drain: flip to draining first — /healthz reports it, new
		// /run requests get 503 draining, and the fleet heartbeat carries it
		// immediately — then give in-flight runs the -drain window while the
		// listener keeps answering.
		srv.SetDraining(true)
		if agent != nil {
			agent.BeatNow()
		}
		log.Printf("interrupt: draining %d in-flight run(s) (window %s)", srv.Inflight(), *drain)
		deadline := time.Now().Add(*drain)
		for srv.Inflight() > 0 && time.Now().Before(deadline) {
			time.Sleep(25 * time.Millisecond)
		}
	})
	if agentCancel != nil {
		// Ending the agent's context deregisters (best effort) on the way
		// out, so the coordinator drops us now instead of expiring us later.
		agentCancel()
		<-agentDone
	}
}

// advertiseFromListener derives the base URL to announce from the bound
// listener address. A wildcard bind has no single reachable address, so it
// falls back to loopback with a warning — right for single-host fleets,
// wrong across machines, where -advertise names the real address.
func advertiseFromListener(addr net.Addr) string {
	tcp, ok := addr.(*net.TCPAddr)
	if !ok {
		return addr.String()
	}
	if tcp.IP == nil || tcp.IP.IsUnspecified() {
		adv := fmt.Sprintf("127.0.0.1:%d", tcp.Port)
		log.Printf("worker: -listen binds a wildcard address; advertising %s — use -advertise for a cross-host fleet", adv)
		return adv
	}
	return net.JoinHostPort(tcp.IP.String(), fmt.Sprint(tcp.Port))
}
