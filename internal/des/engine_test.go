package des

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %v, want 0", e.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []float64
	for _, ti := range []float64{5, 1, 3, 2, 4} {
		tt := ti
		e.At(tt, func() { order = append(order, tt) })
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !sort.Float64sAreSorted(order) {
		t.Errorf("events fired out of order: %v", order)
	}
	if e.Now() != 5 {
		t.Errorf("final time = %v, want 5", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, func() { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at float64
	e.At(10, func() {
		e.After(5, func() { at = e.Now() })
	})
	e.Run(0)
	if at != 15 {
		t.Errorf("After fired at %v, want 15", at)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(1, func() { fired = true })
	ev.Cancel()
	e.At(2, func() {})
	e.Run(0)
	if fired {
		t.Error("canceled event fired")
	}
	if e.Now() != 2 {
		t.Errorf("final time = %v, want 2", e.Now())
	}
}

func TestCancelFromHandler(t *testing.T) {
	e := NewEngine()
	fired := false
	var ev *Event
	e.At(1, func() { ev.Cancel() })
	ev = e.At(2, func() { fired = true })
	e.Run(0)
	if fired {
		t.Error("event canceled at t=1 still fired")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {})
	e.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.At(1, func() {})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, ti := range []float64{1, 2, 3, 4} {
		tt := ti
		e.At(tt, func() { fired = append(fired, tt) })
	}
	e.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %v events, want 2", len(fired))
	}
	if e.Now() != 2.5 {
		t.Errorf("Now() = %v, want 2.5", e.Now())
	}
	e.Run(0)
	if len(fired) != 4 {
		t.Errorf("remaining events lost: fired %d total", len(fired))
	}
}

func TestRunEventBound(t *testing.T) {
	e := NewEngine()
	var rearm func()
	rearm = func() { e.After(1, rearm) }
	e.After(1, rearm)
	if _, err := e.Run(100); err == nil {
		t.Fatal("expected event-bound error for self-rearming event")
	}
}

func TestEventTimeAccessor(t *testing.T) {
	e := NewEngine()
	ev := e.At(3.5, func() {})
	if ev.Time() != 3.5 {
		t.Errorf("Time() = %v, want 3.5", ev.Time())
	}
}

// Property: for any set of event times, events fire sorted and the clock
// ends at the max time.
func TestOrderingProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine()
		var fired []float64
		max := 0.0
		for _, raw := range times {
			tt := float64(raw)
			if tt > max {
				max = tt
			}
			e.At(tt, func() { fired = append(fired, tt) })
		}
		e.Run(0)
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		return len(times) == 0 || e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
