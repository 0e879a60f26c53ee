package dist

import (
	"sync"
	"time"
)

// Clock abstracts the monotonic time source behind heartbeat timers and
// lease resends. The obs.Clock (a bare func() time.Time) is not
// enough here: the worker and coordinator also need timer channels, and
// heartbeat-expiry tests must advance time without sleeping real time
// (the same motivation as the frozen checkpoint clock). Production code
// uses RealClock; tests inject a ManualClock.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel that delivers one value once d has
	// elapsed.
	After(d time.Duration) <-chan time.Time
}

// RealClock is the wall-clock Clock backed by the time package.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// After implements Clock.
func (RealClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// ManualClock is a Clock whose time only moves when Advance is called.
// Timers created by After fire, in one batch, as soon as an Advance
// reaches their deadline — no goroutine ever sleeps, so heartbeat and
// resend tests run in microseconds regardless of the configured
// intervals.
type ManualClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []manualTimer
}

type manualTimer struct {
	at time.Time
	ch chan time.Time
}

// NewManualClock returns a ManualClock starting at start.
func NewManualClock(start time.Time) *ManualClock {
	return &ManualClock{now: start}
}

// Now implements Clock.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After implements Clock. A non-positive d fires immediately.
func (c *ManualClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	at := c.now.Add(d)
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.timers = append(c.timers, manualTimer{at: at, ch: ch})
	return ch
}

// Advance moves the clock forward by d and fires every timer whose
// deadline has been reached.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	kept := c.timers[:0]
	for _, t := range c.timers {
		if !t.at.After(c.now) {
			t.ch <- c.now
		} else {
			kept = append(kept, t)
		}
	}
	c.timers = kept
}
