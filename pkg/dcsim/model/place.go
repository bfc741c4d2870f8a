package model

import (
	"errors"
	"fmt"
)

// Request describes one VM to be placed for the upcoming period.
type Request struct {
	ID string
	// Ref is the predicted reference utilization û (peak or Nth
	// percentile, in core-equivalents) the VM must be provisioned for.
	Ref float64
	// OffPeak is the predicted off-peak utilization (e.g. 90th
	// percentile); only envelope-based policies such as PCP consume it.
	// A run measures and predicts it only when a component's factory
	// declared it (dcsim's Build.NeedOffPeak); otherwise it is 0.
	OffPeak float64
	// WindowOffPeak is the off-peak utilization measured over Window: the
	// same percentile as OffPeak, read from the samples a policy sees
	// rather than predicted, so a policy need not select it from Window
	// again. PCP extracts its envelopes against it. A run sets it
	// together with OffPeak, only when a factory declared NeedOffPeak;
	// otherwise it is 0. With the last-value predictor, and in a period
	// whose references are measured, it equals OffPeak.
	WindowOffPeak float64
	// Window is the recent demand window; only policies that cluster or
	// correlate raw demand consume it. It may be nil for policies that do
	// not need it.
	Window *Series
}

// Placement maps each VM (by request index) to a server index.
type Placement struct {
	NumServers int
	Assign     []int // per request: server index in [0, NumServers)
}

// VMsOn returns the request indices placed on the given server.
func (p *Placement) VMsOn(srv int) []int {
	var out []int
	for i, s := range p.Assign {
		if s == srv {
			out = append(out, i)
		}
	}
	return out
}

// Active returns the number of servers that host at least one VM.
func (p *Placement) Active() int {
	seen := make(map[int]bool)
	for _, s := range p.Assign {
		seen[s] = true
	}
	return len(seen)
}

// Validate checks that every VM landed on a server in range.
func (p *Placement) Validate() error {
	for i, s := range p.Assign {
		if s < 0 || s >= p.NumServers {
			return fmt.Errorf("model: vm %d assigned to server %d of %d", i, s, p.NumServers)
		}
	}
	return nil
}

// ProvisionedLoad returns, per server, the sum of the placed VMs' Ref
// values — the worst-case demand if all peaks coincided.
func (p *Placement) ProvisionedLoad(reqs []Request) []float64 {
	load := make([]float64, p.NumServers)
	for i, s := range p.Assign {
		load[s] += reqs[i].Ref
	}
	return load
}

// Policy places a set of VM requests onto at most maxServers homogeneous
// servers of the given spec. Implementations must place every request
// (overcommitting the least-loaded server when nothing fits — the QoS
// consequences show up as violations in the simulator, exactly as in the
// paper) and should minimize the number of servers used.
type Policy interface {
	Name() string
	Place(reqs []Request, spec ServerSpec, maxServers int) (*Placement, error)
}

// ErrNoServers is returned by policies when maxServers < 1.
var ErrNoServers = errors.New("model: need at least one server")
