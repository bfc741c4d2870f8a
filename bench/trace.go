package main

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"time"

	"repro/internal/sim"
	"repro/pkg/dcsim"
	"repro/pkg/dcsim/model"
)

// span names one layer of a run. The spans tile a traced run: ingest and
// assemble run before the simulator, and inside it every instant belongs to
// a component call or to one of the simulator's own two phases.
type span int

const (
	spIngest span = iota
	spAssemble
	spPredict
	spPlace
	spGovPlan
	spGovRescale
	spMatrixAdd
	spMatrixReset
	// spHistory is the simulator's own time from run start or a period
	// boundary to the next placement: reference history and requests.
	spHistory
	// spAccount is the simulator's own time from a placement to the end of
	// its period: demand gather, power and violation accounting, rescale
	// aggregation.
	spAccount
	nSpans
)

var spanNames = [nSpans]string{
	"ingest", "assemble", "predict", "place", "governor.plan", "governor.rescale",
	"matrix.add", "matrix.reset", "sim.history", "sim.account",
}

// tracer accumulates self time and call counts per span, in memory, for the
// runs of one traced iteration. Only one goroutine uses it: sim.Run calls
// every component from its own.
type tracer struct {
	self  [nSpans]time.Duration
	calls [nSpans]int64

	// The open simulator phase, when it started, and how much of it the
	// component calls made since then cover.
	phase      span
	phaseStart time.Time
	phaseChild time.Duration

	wall       time.Duration // Σ traced run wall time
	simWall    time.Duration // Σ sim.Run wall time
	vmSamples  int64         // VM-samples ingested
	simSamples int64         // VM-samples simulated
	pairs      int64         // VM pairs fed to the matrix
}

// leaf charges a component call that started at start to span s, and to the
// enclosing simulator phase's child time.
func (t *tracer) leaf(s span, start time.Time) {
	d := time.Since(start)
	t.self[s] += d
	t.calls[s]++
	t.phaseChild += d
}

// enter closes the open simulator phase at now and opens next.
func (t *tracer) enter(next span, now time.Time) {
	t.closePhase(now)
	t.phase, t.phaseStart, t.phaseChild = next, now, 0
}

func (t *tracer) closePhase(now time.Time) {
	if t.phaseStart.IsZero() {
		return
	}
	t.self[t.phase] += now.Sub(t.phaseStart) - t.phaseChild
	t.calls[t.phase]++
	t.phaseStart = time.Time{}
}

type tracedPolicy struct {
	model.Policy
	t *tracer
}

// Place implements model.Policy. A placement ends the history phase and
// starts the accounting phase.
func (p tracedPolicy) Place(reqs []model.Request, spec model.ServerSpec, maxServers int) (*model.Placement, error) {
	start := time.Now()
	p.t.closePhase(start)
	pl, err := p.Policy.Place(reqs, spec, maxServers)
	end := time.Now()
	p.t.self[spPlace] += end.Sub(start)
	p.t.calls[spPlace]++
	p.t.enter(spAccount, end)
	return pl, err
}

type tracedGovernor struct {
	model.Governor
	t *tracer
}

// PlanStatic implements model.Governor.
func (g tracedGovernor) PlanStatic(p *model.Placement, refs []float64, spec model.ServerSpec) []float64 {
	defer g.t.leaf(spGovPlan, time.Now())
	return g.Governor.PlanStatic(p, refs, spec)
}

// Rescale implements model.Governor.
func (g tracedGovernor) Rescale(members []int, recentRefs []float64, aggPeak float64, spec model.ServerSpec) float64 {
	defer g.t.leaf(spGovRescale, time.Now())
	return g.Governor.Rescale(members, recentRefs, aggPeak, spec)
}

type tracedPredictor struct {
	model.Predictor
	t *tracer
}

// Predict implements model.Predictor.
func (p tracedPredictor) Predict(history []float64) float64 {
	defer p.t.leaf(spPredict, time.Now())
	return p.Predictor.Predict(history)
}

// tracedMatrix times the simulator's feed of the shared cost matrix. The
// policy and governor keep the undecorated instance, so their Cost reads
// stay inside the place and governor spans.
type tracedMatrix struct {
	model.CostSource
	t *tracer
}

// Add implements model.CostSource.
func (m tracedMatrix) Add(sample []float64) {
	defer m.t.leaf(spMatrixAdd, time.Now())
	m.CostSource.Add(sample)
	n := int64(len(sample))
	m.t.pairs += n * (n - 1) / 2
}

// Reset implements model.CostSource.
func (m tracedMatrix) Reset() {
	defer m.t.leaf(spMatrixReset, time.Now())
	m.CostSource.Reset()
}

// sharedMatrix returns the cost matrix a component asked the build for, or
// nil when none did: dcsim.Run feeds the simulator a matrix exactly then.
// Build hands the matrix out only through an accessor that creates it, so
// whether it exists is read from the unexported field.
func sharedMatrix(b *dcsim.Build) (model.CostSource, error) {
	f := reflect.ValueOf(b).Elem().FieldByName("matrix")
	if !f.IsValid() || f.Kind() != reflect.Interface {
		return nil, fmt.Errorf("dcsim.Build has no matrix interface field; the traced composition needs updating")
	}
	if f.IsNil() {
		return nil, nil
	}
	return b.Matrix(), nil
}

// runTraced is dcsim.Run composed from the façade's public parts, with a
// timing decorator around each layer. It must return the Result dcsim.Run
// returns for the same scenario; the parity test holds it to that.
func runTraced(ctx context.Context, sc dcsim.Scenario, t *tracer) (*dcsim.Result, error) {
	sc = sc.Normalized()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	runStart := time.Now()
	defer func() { t.wall += time.Since(runStart) }()

	vms, err := ingest(ctx, sc.Workload, t)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	b := &dcsim.Build{Scenario: sc, NVMs: len(vms)}
	srv, err := dcsim.LookupServer(sc.Server)
	if err != nil {
		return nil, err
	}
	policy, err := dcsim.NewPolicy(sc.Policy, b)
	if err != nil {
		return nil, err
	}
	governor, err := dcsim.NewGovernor(sc.Governor, b)
	if err != nil {
		return nil, err
	}
	predictor, err := dcsim.NewPredictor(sc.Predictor, b)
	if err != nil {
		return nil, err
	}
	matrix, err := sharedMatrix(b)
	if err != nil {
		return nil, err
	}
	t.self[spAssemble] += time.Since(start)
	t.calls[spAssemble]++

	cfg := sim.Config{
		Spec:             srv.Spec,
		Power:            srv.Power,
		Policy:           tracedPolicy{policy, t},
		Governor:         tracedGovernor{governor, t},
		MaxServers:       sc.MaxServers,
		PeriodSamples:    sc.PeriodSamples,
		RescaleEvery:     sc.RescaleEvery,
		Pctl:             sc.Pctl,
		OffPctl:          sc.OffPctl,
		Predictor:        tracedPredictor{predictor, t},
		CumulativeMatrix: sc.CumulativeMatrix,
		Oracle:           sc.Oracle,
		Ctx:              ctx,
		OnPeriod:         func(model.PeriodStats) { t.enter(spHistory, time.Now()) },
	}
	if matrix != nil {
		cfg.Matrix = tracedMatrix{matrix, t}
	}
	simStart := time.Now()
	t.enter(spHistory, simStart)
	res, err := sim.Run(vms, cfg)
	simEnd := time.Now()
	t.closePhase(simEnd)
	t.simWall += simEnd.Sub(simStart)
	if res != nil {
		t.simSamples += int64(len(vms)) * int64(len(res.Periods)*sc.PeriodSamples)
	}
	return res, err
}

// ingest is dcsim.Run's workload ingest: stream the records and keep each
// VM's fine series.
func ingest(ctx context.Context, w dcsim.Workload, t *tracer) ([]*model.VM, error) {
	start := time.Now()
	defer func() { t.self[spIngest] += time.Since(start) }()
	r, err := dcsim.OpenTraces(ctx, w)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	vms := make([]*model.VM, 0, r.Len())
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		t.calls[spIngest]++
		t.vmSamples += int64(rec.Fine.Len())
		vms = append(vms, model.NewVM(rec.Name, rec.Fine))
	}
	if len(vms) == 0 {
		return nil, fmt.Errorf("workload kind %q produced no traces", w.Kind)
	}
	return vms, nil
}
