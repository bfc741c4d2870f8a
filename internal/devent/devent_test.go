package devent

import (
	"sort"
	"testing"
	"testing/quick"
)

// Pending returns the number of scheduled events.
func (s *Sim) Pending() int { return len(s.pq) }

func TestScheduleAndRunOrder(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	s.Run(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 10 {
		t.Fatalf("now = %v, want 10", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Schedule(1, func() { order = append(order, i) })
	}
	s.Run(2)
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	s := New()
	fired := false
	s.Schedule(5, func() { fired = true })
	s.Run(4)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if s.Now() != 4 {
		t.Fatalf("now = %v, want 4", s.Now())
	}
	s.Run(5) // event exactly at the horizon runs
	if !fired {
		t.Fatal("event at horizon should fire")
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var times []float64
	var recurse func()
	recurse = func() {
		times = append(times, s.Now())
		if s.Now() < 3 {
			s.Schedule(1, recurse)
		}
	}
	s.Schedule(1, recurse)
	s.Run(10)
	want := []float64{1, 2, 3}
	if len(times) != len(want) {
		t.Fatalf("times = %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestStep(t *testing.T) {
	s := New()
	if s.Step() {
		t.Fatal("Step on empty sim should be false")
	}
	n := 0
	s.Schedule(1, func() { n++ })
	if !s.Step() || n != 1 || s.Now() != 1 {
		t.Fatalf("step: n=%d now=%v", n, s.Now())
	}
}

func TestPanicsOnBadSchedule(t *testing.T) {
	s := New()
	s.Schedule(5, func() {})
	s.Run(5)
	for _, fn := range []func(){
		func() { s.Schedule(-1, func() {}) },
		func() { s.ScheduleAt(4, func() {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestEventTimesNonDecreasing(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New()
		var fired []float64
		for _, d := range delays {
			s.Schedule(float64(d), func() { fired = append(fired, s.Now()) })
		}
		s.Run(1 << 20)
		if len(fired) != len(delays) {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPendingCount(t *testing.T) {
	s := New()
	s.Schedule(1, func() {})
	s.Schedule(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	s.Run(1)
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
}
