package des

import (
	"math/rand"
	"testing"
)

// TestScheduleEqualsCancelPlusAt: re-arming one caller-owned event with
// Schedule fires in exactly the order — and counts exactly the removals
// — of the cancel-and-recreate idiom it replaces, over random
// interleavings with ordinary events at colliding timestamps.
func TestScheduleEqualsCancelPlusAt(t *testing.T) {
	drive := func(seed int64, owned bool) (order []int, removed int) {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		fire := func() { order = append(order, -1) }
		timer := e.NewEvent(fire)
		var handle *Event
		for i := 0; i < 200; i++ {
			id := i
			e.At(float64(rng.Intn(20)), func() {
				order = append(order, id)
				switch at := e.Now() + float64(rng.Intn(4)); {
				case rng.Intn(3) == 0:
					// leave the timer as it is
				case owned:
					e.Schedule(timer, at)
				default:
					if handle != nil {
						handle.Cancel()
					}
					handle = e.At(at, fire)
				}
			})
		}
		if _, err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return order, e.Removed()
	}
	for seed := int64(1); seed <= 20; seed++ {
		a, ra := drive(seed, true)
		b, rb := drive(seed, false)
		if len(a) != len(b) || ra != rb {
			t.Fatalf("seed %d: %d firings / %d removals with Schedule, %d / %d with Cancel+At", seed, len(a), ra, len(b), rb)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: firing %d is %d with Schedule, %d with Cancel+At", seed, i, a[i], b[i])
			}
		}
	}
}

func TestScheduleRevivesCanceledAndTombstonedEvents(t *testing.T) {
	e := NewEngine()
	fired := 0
	timer := e.NewEvent(func() { fired++ })
	timer.Cancel() // canceling an unarmed event must not poison it
	e.Schedule(timer, 1)
	// Push the engine into its tombstoning mode, then cancel the timer
	// so it stays in the heap as a tombstone.
	var storm []*Event
	for i := 0; i < 3*cancelBurstLimit; i++ {
		storm = append(storm, e.At(5, func() { t.Error("canceled event fired") }))
	}
	e.At(9, func() {})
	for _, ev := range storm[:cancelBurstLimit+2] {
		ev.Cancel()
	}
	timer.Cancel()
	if timer.index < 0 || e.tombstones == 0 {
		t.Fatal("setup: the timer was removed eagerly, not tombstoned")
	}
	pending := e.Pending()
	e.Schedule(timer, 2)
	if e.Pending() != pending+1 {
		t.Fatalf("Pending = %d after reviving a tombstone, want %d", e.Pending(), pending+1)
	}
	for _, ev := range storm {
		ev.Cancel()
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("timer fired %d times, want 1", fired)
	}
}

// TestResetRestoresFreshEngine: after Reset the engine numbers, orders
// and counts events like a new one, keeps its run-end hooks (once), and
// hands the previous run's events out again instead of allocating.
func TestResetRestoresFreshEngine(t *testing.T) {
	e := NewEngine()
	hooked := 0
	e.OnRunEnd(func() { hooked++ })
	timer := e.NewEvent(func() {})
	var order []int
	load := func() {
		for i := 0; i < 600; i++ {
			id := i
			ev := e.At(float64(i%7), func() { order = append(order, id) })
			if i%5 == 0 {
				ev.Cancel()
			}
		}
		e.Schedule(timer, 3)
	}
	load()
	if _, err := e.Run(100); err == nil {
		t.Fatal("setup: the event bound was not reached")
	}
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Fired() != 0 || e.Removed() != 0 || e.MaxPending() != 0 {
		t.Fatalf("after Reset: now=%v pending=%d fired=%d removed=%d maxPending=%d",
			e.Now(), e.Pending(), e.Fired(), e.Removed(), e.MaxPending())
	}
	timer.Cancel() // a caller-owned event dropped by Reset is simply unarmed
	order = order[:0]
	load()
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	reused := append([]int(nil), order...)
	if hooked != 2 {
		t.Fatalf("run-end hook fired %d times over two runs, want 2", hooked)
	}

	fresh := NewEngine()
	e, timer = fresh, fresh.NewEvent(func() {})
	order = order[:0]
	load()
	if _, err := fresh.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(reused) != len(order) {
		t.Fatalf("reused engine fired %d events, fresh %d", len(reused), len(order))
	}
	for i := range order {
		if reused[i] != order[i] {
			t.Fatalf("firing %d: reused engine ran %d, fresh ran %d", i, reused[i], order[i])
		}
	}
}

func TestResetRecyclesEvents(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	run := func() {
		e.Reset()
		for i := 0; i < 1000; i++ {
			e.At(float64(i), fn)
		}
		if _, err := e.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("a warmed, Reset engine allocates %v times per 1000 events, want 0", allocs)
	}
}
