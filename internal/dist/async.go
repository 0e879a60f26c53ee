package dist

import (
	"context"

	"simcal/internal/core"
)

// Per-lease completion callbacks: the calibration core keeps the fleet
// saturated by refilling capacity the moment any lease resolves, so it
// needs completion delivery without a goroutine parked per in-flight
// evaluation. RunAsync puts a callback on the lease itself; every
// resolution path funnels through fleet.resolve, whose deliver action
// invokes it exactly once. The blocking Run is RunAsync plus a wait.
//
// Context expiry needs no parked goroutine either, nor a registration
// per lease: the leases submitted under one context share one expiry
// watch (fleet.go's watch), armed with one context.AfterFunc when the
// first of them is submitted and released with the last of them to
// settle. A warm RunAsync under a context other leases are still
// running under allocates the lease and its wire point only
// (TestRunAsyncAllocations). The point is copied into a wire map
// because that is LeaseMsg's shape.

// RunAsync submits one lease and returns immediately; done is invoked
// exactly once with the lease's outcome — a worker's loss, a
// quarantine or cancel error, ErrCoordinatorClosed, or ctx.Err() when
// the context expires first. done runs on whichever goroutine fed the
// resolving event (a worker's reader, the timer, the caller of Close or
// CancelJob, the context's expiry, or this call itself) and must be
// cheap and non-blocking (the core engine's completion handler
// qualifies).
func (e *RemoteEvaluator) RunAsync(ctx context.Context, p core.Point, done func(loss float64, err error)) {
	c := e.c
	pt := make(map[string]WireFloat, len(p))
	for k, v := range p {
		pt[k] = WireFloat(v)
	}
	l := &lease{index: e.next.Add(1) - 1, job: e.job, spec: e.spec, point: pt, cb: done}
	c.mu.Lock()
	if w := c.fleet.watch(l, ctx); w != nil {
		if w.fire == nil {
			w.fire = func() { c.expire(w) }
		}
		// Registered under mu, so that stop is set before any event can
		// release w. AfterFunc runs fire on a goroutine of its own, never
		// inside this call: an expiry that races the registration waits
		// for mu.
		w.stop = context.AfterFunc(ctx, w.fire)
	}
	c.fleet.submit(c.now(), l)
	c.perform()
}

// expire is a watch's AfterFunc callback: its context expired.
func (c *Coordinator) expire(w *watch) {
	c.mu.Lock()
	c.fleet.expire(w)
	c.perform()
}
