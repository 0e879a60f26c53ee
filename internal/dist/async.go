package dist

import (
	"context"

	"simcal/internal/core"
)

// Per-lease completion callbacks: the calibration core keeps the fleet
// saturated by refilling capacity the moment any lease resolves, so it
// needs completion delivery without a goroutine parked per in-flight
// evaluation. RunAsync registers a callback on the lease itself; every
// resolution path funnels through lease.deliver, which invokes it
// exactly once. The blocking Run is RunAsync plus a wait.

// RunAsync enqueues one lease and returns immediately; done is invoked
// exactly once with the lease's outcome — a worker's loss, a
// quarantine or cancel error, ErrCoordinatorClosed, or ctx.Err() when
// the context expires first. done runs on a coordinator delivery
// goroutine and must be cheap and non-blocking (the core engine's
// completion handler qualifies).
func (e *RemoteEvaluator) RunAsync(ctx context.Context, p core.Point, done func(loss float64, err error)) {
	c := e.c
	pt := make(map[string]WireFloat, len(p))
	for k, v := range p {
		pt[k] = WireFloat(v)
	}
	l := &lease{
		id:         c.nextLease.Add(1),
		index:      e.next.Add(1) - 1,
		job:        e.job,
		spec:       e.spec,
		point:      pt,
		cb:         done,
		attempt:    -1, // first dispatch is attempt 0
		enqueuedNS: c.clock.Now().UnixNano(),
	}
	if err := ctx.Err(); err != nil {
		l.deliver(leaseOutcome{err: err})
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		l.deliver(leaseOutcome{err: ErrCoordinatorClosed})
		return
	}
	c.queue = append(c.queue, l)
	c.cond.Broadcast()
	c.mu.Unlock()
	select {
	case c.queueKick <- struct{}{}:
	default:
	}
	// Watch for context expiry without a parked goroutine. Registered
	// after enqueue: a cancellation in the tiny unwatched window is
	// caught by AfterFunc firing immediately on registration. The
	// watcher marks the lease canceled (so dispatchers skip it and
	// worker deaths don't requeue it) before delivering ctx.Err(); a
	// real result racing the expiry loses — or wins — at deliver.
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		l.canceled = true
		c.mu.Unlock()
		l.deliver(leaseOutcome{err: ctx.Err()})
	})
	l.mu.Lock()
	if l.settled {
		// Delivery won before the watcher existed; release it now.
		l.mu.Unlock()
		stop()
		return
	}
	l.stopWatch = stop
	l.mu.Unlock()
}
