package service

import (
	"context"
	"sync"

	"repro/pkg/dcsim/sweep"
)

// Event is one job event: a Type and a JSON-marshalable payload. The
// HTTP layer writes it verbatim as a Server-Sent Event
// ("event: <Type>\ndata: <json>\n\n").
//
// Types:
//
//	"state"     a non-terminal transition (queued → running); Data is
//	            the job Status. A subscriber's first event is always a
//	            "state" snapshot of wherever the job currently is.
//	"progress"  one sweep run finished; Data is a ProgressEvent.
//	"done", "failed", "cancelled"
//	            the terminal transition, named after the final state;
//	            Data is the final Status. It is always the stream's
//	            last event.
type Event struct {
	Type string
	Data any
}

// ProgressEvent is the "progress" payload: the sweep engine's Progress
// event stamped with the job ID, durations rendered in seconds.
type ProgressEvent struct {
	Job          string  `json:"job"`
	Cell         int     `json:"cell"`
	CellName     string  `json:"cell_name"`
	Replica      int     `json:"replica"`
	ElapsedS     float64 `json:"elapsed_s"`
	CellDone     bool    `json:"cell_done,omitempty"`
	CellElapsedS float64 `json:"cell_elapsed_s,omitempty"`
	CellsDone    int     `json:"cells_done"`
	CellsTotal   int     `json:"cells_total"`
	RunsDone     int     `json:"runs_done"`
	RunsTotal    int     `json:"runs_total"`
	Replicas     int     `json:"replicas"`
}

// progressPayload renders an engine progress event for the wire.
func progressPayload(jobID string, p sweep.Progress) ProgressEvent {
	return ProgressEvent{
		Job:          jobID,
		Cell:         p.CellIndex,
		CellName:     p.CellName,
		Replica:      p.Replica,
		ElapsedS:     p.Elapsed.Seconds(),
		CellDone:     p.Cell != nil,
		CellElapsedS: p.CellElapsed.Seconds(),
		CellsDone:    p.CellsDone,
		CellsTotal:   p.CellsTotal,
		RunsDone:     p.RunsDone,
		RunsTotal:    p.RunsTotal,
		Replicas:     p.Replicas,
	}
}

// Subscription is one subscriber's view of a job's event stream. Memory
// stays bounded however slow the consumer is: state events are pending in
// order (a job has at most a handful), while progress events coalesce —
// an unread one is overwritten by the next, so a stalled SSE client skips
// intermediate progress instead of buffering it. The terminal event is
// never dropped and is always delivered last.
type Subscription struct {
	job *job

	mu       sync.Mutex
	cond     *sync.Cond
	states   []Event // pending state / terminal events, in order
	progress *Event  // latest unread progress event (coalesced)
	closed   bool    // terminal event pushed (or Close called)
}

// Subscribe attaches a new subscriber to a job. The first event is a
// snapshot of the job's current state; a job already terminal yields that
// single terminal event and then ends the stream. Callers must Close the
// subscription when done with it.
func (m *Manager) Subscribe(id string) (*Subscription, error) {
	j, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	s := &Subscription{job: j}
	s.cond = sync.NewCond(&s.mu)
	typ := "state"
	if j.state.Terminal() {
		typ = string(j.state)
		s.closed = true
	} else {
		j.subs[s] = struct{}{}
	}
	s.states = []Event{{Type: typ, Data: j.statusLocked()}}
	return s, nil
}

// Next blocks until an event is pending, the stream ends, or ctx is
// cancelled. It returns ok=false when no further events will come — after
// the terminal event has been delivered, or on ctx cancellation.
func (s *Subscription) Next(ctx context.Context) (Event, bool) {
	// Wake the cond wait when the caller gives up, so an SSE handler
	// unblocks as soon as its client disconnects.
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if len(s.states) > 0 {
			ev := s.states[0]
			s.states = s.states[1:]
			return ev, true
		}
		if s.progress != nil {
			ev := *s.progress
			s.progress = nil
			return ev, true
		}
		if s.closed || ctx.Err() != nil {
			return Event{}, false
		}
		s.cond.Wait()
	}
}

// Close detaches the subscription from its job and wakes any blocked
// Next. It is safe to call more than once.
func (s *Subscription) Close() {
	j := s.job
	j.mu.Lock()
	delete(j.subs, s)
	j.mu.Unlock()
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// push hands an event to the subscriber; the job's lock is held by the
// caller. Terminal events clear any stale coalesced progress so the
// stream's last event is the terminal one.
func (s *Subscription) push(ev Event, terminal bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if ev.Type == "progress" {
		s.progress = &ev
	} else {
		s.states = append(s.states, ev)
	}
	if terminal {
		s.progress = nil
		s.closed = true
	}
	s.cond.Broadcast()
}

// broadcastLocked fans an event out to every subscriber; callers hold
// j.mu. A terminal event ends every stream and detaches the subscribers.
func (j *job) broadcastLocked(ev Event, terminal bool) {
	for s := range j.subs {
		s.push(ev, terminal)
	}
	if terminal {
		j.subs = nil
	}
}
