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

// RunAsync submits one lease and returns immediately; done is invoked
// exactly once with the lease's outcome — a worker's loss, a
// quarantine or cancel error, ErrCoordinatorClosed, or ctx.Err() when
// the context expires first. done runs on whichever goroutine fed the
// resolving event (a worker's reader, the timer, the caller of Close or
// CancelJob, or this call itself) and must be cheap and non-blocking
// (the core engine's completion handler qualifies).
func (e *RemoteEvaluator) RunAsync(ctx context.Context, p core.Point, done func(loss float64, err error)) {
	c := e.c
	pt := make(map[string]WireFloat, len(p))
	for k, v := range p {
		pt[k] = WireFloat(v)
	}
	l := &lease{index: e.next.Add(1) - 1, job: e.job, spec: e.spec, point: pt, cb: done}
	// Watch for context expiry without a parked goroutine: the expiry is
	// a fleet event like any other resolution. An expiry that wins the
	// race to the fleet (AfterFunc fires at once on a dead context)
	// settles the lease first, and submit drops it.
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.fleet.cancel(l, ctx.Err())
		c.perform()
	})
	c.mu.Lock()
	l.stopWatch = stop
	c.fleet.submit(c.now(), l)
	c.perform()
}
