package des

import (
	"slices"
	"testing"
)

// TestPlaceholderKeepsItsSeq: a placeholder retimed to t fires after the
// events at t with a lower seq and before those with a higher one, and
// resolving it — to a retime or to a cancel — fires nothing and removes
// nothing.
func TestPlaceholderKeepsItsSeq(t *testing.T) {
	e := NewEngine()
	var order []string
	log := func(name string) func() { return func() { order = append(order, name) } }
	e.At(1, log("lower"))
	ph := e.NewEvent(log("placeholder"))
	resolved := 0
	e.Defer(ph, func() {
		resolved++
		e.Retime(ph, 1)
	})
	e.At(1, log("higher"))
	// The placeholder sits at (0, seq 1), ahead of both: reaching it
	// resolves it, and RunUntil(0) fires nothing else.
	e.RunUntil(0)
	if resolved != 1 || e.Fired() != 0 || e.Removed() != 0 || e.Pending() != 3 {
		t.Fatalf("after the resolution: resolved %d, Fired %d, Removed %d, Pending %d; want 1, 0, 0, 3",
			resolved, e.Fired(), e.Removed(), e.Pending())
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if want := []string{"lower", "placeholder", "higher"}; !slices.Equal(order, want) {
		t.Fatalf("firing order %v, want %v", order, want)
	}
	if resolved != 1 || e.Fired() != 3 {
		t.Fatalf("resolved %d times, Fired %d; want 1, 3", resolved, e.Fired())
	}

	// Re-armed while queued, the event counts the removal of the firing
	// it supersedes; a resolution that cancels it counts none.
	e.Schedule(ph, 5)
	e.Defer(ph, func() { ph.Cancel() })
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.Fired() != 3 || e.Removed() != 1 || e.Pending() != 0 {
		t.Fatalf("after a canceling resolution: Fired %d, Removed %d, Pending %d; want 3, 1, 0",
			e.Fired(), e.Removed(), e.Pending())
	}
}
