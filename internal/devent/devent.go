// Package devent is a minimal discrete-event simulation kernel: a virtual
// clock and a time-ordered event queue with deterministic FIFO tie-breaking.
// The web-search cluster simulator runs on top of it.
package devent

import (
	"container/heap"
	"fmt"
)

type event struct {
	at  float64
	seq int64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Sim is a discrete-event simulation instance. The zero value is ready to
// use with the clock at 0.
type Sim struct {
	now float64
	seq int64
	pq  eventHeap
}

// New returns a simulation with the clock at zero.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Schedule runs fn after the given delay. A negative delay panics; zero is
// allowed and fires in FIFO order after already-scheduled same-time events.
func (s *Sim) Schedule(delay float64, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("devent: negative delay %v", delay))
	}
	s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt runs fn at absolute time t, which must not be in the past.
func (s *Sim) ScheduleAt(t float64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("devent: schedule at %v before now %v", t, s.now))
	}
	s.seq++
	heap.Push(&s.pq, event{at: t, seq: s.seq, fn: fn})
}

// Step runs the earliest pending event, advancing the clock to it. It
// reports whether an event was run.
func (s *Sim) Step() bool {
	if len(s.pq) == 0 {
		return false
	}
	e := heap.Pop(&s.pq).(event)
	s.now = e.at
	e.fn()
	return true
}

// Run processes events in order until the clock would pass `until`, then
// sets the clock to `until`. Events scheduled exactly at `until` do run.
func (s *Sim) Run(until float64) {
	for len(s.pq) > 0 && s.pq[0].at <= until {
		s.Step()
	}
	if until > s.now {
		s.now = until
	}
}
