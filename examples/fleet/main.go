// Example fleet demonstrates the elastic worker fleet end to end inside
// one process: a coordinator registry, two workers that register and
// heartbeat through the real HTTP membership endpoints (exactly what
// "dcsim worker -register" speaks), a sweep dispatched over the fleet —
// during which one worker is torn down mid-run and a replacement joins —
// and a byte-comparison proving the aggregate is identical to a purely
// local run of the same grid. Across real machines the only difference
// is the URLs.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"repro/pkg/dcsim"
	"repro/pkg/dcsim/sweep"
	"repro/pkg/dcsim/sweep/fleet"
	"repro/pkg/dcsim/sweep/remote"
)

// startWorker serves the worker protocol on a loopback listener, joins
// the fleet through a real registration agent, and returns the stop
// function tearing both down.
func startWorker(coordinatorURL string) (func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	worker := &remote.Server{}
	srv := &http.Server{Handler: worker}
	go srv.Serve(ln)

	agent, err := fleet.NewAgent(fleet.AgentConfig{
		Coordinator:  coordinatorURL,
		SelfURL:      ln.Addr().String(),
		Capabilities: remote.LocalCapabilities().Fingerprint(),
		Interval:     100 * time.Millisecond,
		Status: func() (string, int64) {
			return remote.StatusOK, worker.Inflight()
		},
	})
	if err != nil {
		srv.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		agent.Run(ctx)
	}()
	return func() {
		srv.Close() // hard stop first: in-flight dispatches fail over
		cancel()    // then the agent deregisters on its way out
		<-done
	}, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleet: ")

	// The coordinator: a membership registry served over HTTP, exactly
	// what "dcsim sweep -fleet :8090" or "dcsim serve -fleet" mounts.
	reg := fleet.NewRegistry(fleet.Config{})
	defer reg.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	coordinator := &http.Server{Handler: fleet.NewHandler(reg)}
	go coordinator.Serve(ln)
	defer coordinator.Close()
	coordinatorURL := "http://" + ln.Addr().String()
	fmt.Println("coordinator:", coordinatorURL)

	stop1, err := startWorker(coordinatorURL)
	if err != nil {
		log.Fatal(err)
	}
	stop2, err := startWorker(coordinatorURL)
	if err != nil {
		log.Fatal(err)
	}
	defer stop2()
	if err := reg.WaitForMembers(context.Background(), 2); err != nil {
		log.Fatal(err)
	}
	fmt.Println("2 workers registered")

	grid := sweep.Grid{
		Name: "fleet-demo",
		Base: dcsim.New(
			dcsim.WithVMs(16),
			dcsim.WithGroups(4),
			dcsim.WithHours(6),
			dcsim.WithMaxServers(8),
		),
		Axes: []sweep.Axis{
			{Field: "policy", Values: []any{"bfd", "pcp", "corr-aware"}},
			{Field: "rescale_every", Values: []any{0, 12}},
		},
		Replicas: 2,
	}

	exec, err := fleet.NewExecutor(reg, fleet.WithInFlight(2))
	if err != nil {
		log.Fatal(err)
	}

	// Churn while the sweep runs: once the first cell completes, tear
	// worker 1 down hard (its in-flight runs get stolen back) and
	// join a replacement to absorb the queue.
	churned := false
	opts := sweep.Options{
		Workers:  4,
		Executor: exec,
		Progress: func(p sweep.Progress) {
			if p.Cell == nil || churned {
				return
			}
			churned = true
			stop1()
			if _, err := startWorker(coordinatorURL); err != nil {
				log.Fatal(err)
			}
			fmt.Println("worker 1 torn down mid-sweep, replacement joined")
		},
	}
	fleetRes, err := sweep.Run(context.Background(), grid, opts)
	if err != nil {
		log.Fatal(err)
	}
	fleetJSON, err := fleetRes.JSON()
	if err != nil {
		log.Fatal(err)
	}

	localRes, err := sweep.Run(context.Background(), grid, sweep.Options{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	localJSON, err := localRes.JSON()
	if err != nil {
		log.Fatal(err)
	}

	s := reg.Stats()
	fmt.Printf("fleet after churn: %d alive; %d registrations, %d expirations, %d runs stolen\n",
		s.Alive, s.Registrations, s.Expirations, s.RunsStolen)
	if !bytes.Equal(fleetJSON, localJSON) {
		log.Fatal("fleet aggregate differs from local run")
	}
	fmt.Printf("fleet sweep == local sweep: %d identical bytes across %d cells\n",
		len(fleetJSON), len(fleetRes.Cells))
}
