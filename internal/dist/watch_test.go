package dist

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"simcal/internal/core"
)

// These tests hold the coordinator's context watches to their rules: the
// leases submitted under one context share one watch, which cancels each
// of them exactly once with that context's error wherever the lease is,
// leaves other contexts' leases alone, and is released with its last
// lease.

// watchCount reads the number of armed watches.
func watchCount(c *Coordinator) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.fleet.watches)
}

// handWorker registers a worker with no connection behind it: the
// fleet leases to it, and the test plays its deaths.
func handWorker(c *Coordinator, capacity int) *remoteWorker {
	w := newRemoteWorker("hand", capacity, nopConn{})
	c.mu.Lock()
	c.fleet.hello(c.now(), w)
	c.perform()
	return w
}

// killWorker feeds the coordinator the death of w.
func killWorker(c *Coordinator, w *remoteWorker) {
	c.workerDead(w, errors.New("killed"))
}

// tally records one lease's resolutions.
type tally struct {
	calls atomic.Int64
	out   chan leaseOutcome
}

func newTally() *tally { return &tally{out: make(chan leaseOutcome, 4)} }

func (r *tally) done(loss float64, err error) {
	r.calls.Add(1)
	r.out <- leaseOutcome{loss: loss, err: err}
}

func (r *tally) await(t *testing.T, what string) leaseOutcome {
	t.Helper()
	select {
	case out := <-r.out:
		return out
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never resolved", what)
		return leaseOutcome{}
	}
}

// TestWatchExpiresEveryPlace cancels a context while its lease is
// queued, in flight on a worker, requeued after that worker's death,
// and inside the local fallback, with a lease of a second context beside
// it in the same place. The canceled lease resolves once, with its
// context's error; the other stays unresolved until it settles its own
// way. Once both have, no watch is left.
func TestWatchExpiresEveryPlace(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 2)
	blockLocal := func([]byte) (core.Simulator, error) {
		return core.Evaluator(func(context.Context, core.Point) (float64, error) {
			entered <- struct{}{}
			<-release
			return 7, nil
		}), nil
	}
	for _, place := range []string{"queued", "in flight", "requeued", "local"} {
		t.Run(place, func(t *testing.T) {
			c := NewCoordinator(CoordinatorConfig{LocalFactory: blockLocal, DegradedGrace: -1})
			defer c.Close()
			var w *remoteWorker
			if place != "queued" {
				w = handWorker(c, 2)
			}
			ctxA, cancelA := context.WithCancel(context.Background())
			defer cancelA()
			ctxB, cancelB := context.WithCancel(context.Background())
			defer cancelB()
			a, b := newTally(), newTally()
			e := c.Evaluator([]byte(`{}`))
			e.RunAsync(ctxA, core.Point{"x": 1}, a.done)
			e.RunAsync(ctxB, core.Point{"x": 2}, b.done)
			switch place {
			case "requeued":
				killWorker(c, w)
				if st := c.Status(); st.QueueDepth != 2 || st.RequeuesTotal != 2 {
					t.Fatalf("after the death: %d queued, %d requeued; want both", st.QueueDepth, st.RequeuesTotal)
				}
			case "local":
				// A lease past maxRequeues deaths is quarantined and
				// evaluated on the coordinator.
				for i := 0; i <= maxRequeues; i++ {
					killWorker(c, w)
					w = handWorker(c, 2)
				}
				<-entered // at least one is inside the local simulator
			}
			if got := watchCount(c); got != 2 {
				t.Fatalf("two contexts armed %d watches", got)
			}

			cancelA()
			if out := a.await(t, "the canceled lease"); !errors.Is(out.err, context.Canceled) {
				t.Fatalf("the canceled lease resolved with %v, want context.Canceled", out.err)
			}
			if got := watchCount(c); got != 1 {
				t.Errorf("after the expiry %d watches are armed, want the other context's alone", got)
			}
			select {
			case out := <-b.out:
				t.Fatalf("the other context's lease resolved with %+v", out)
			default:
			}

			// B settles its own way: the local evaluator answers, or the
			// coordinator closes.
			if place == "local" {
				close(release)
				if out := b.await(t, "the other lease"); out.err != nil || out.loss != 7 {
					t.Fatalf("the other lease resolved with %+v, want the local loss", out)
				}
			} else {
				c.Close()
				if out := b.await(t, "the other lease"); out.err != ErrCoordinatorClosed {
					t.Fatalf("the other lease resolved with %v, want ErrCoordinatorClosed", out.err)
				}
			}
			c.Close()
			waitFor(t, "the local evaluators to finish", func() bool { return len(c.localSem) == 0 })
			if got := watchCount(c); got != 0 {
				t.Errorf("%d watches outlived their leases", got)
			}
			if n, m := a.calls.Load(), b.calls.Load(); n != 1 || m != 1 {
				t.Errorf("callbacks ran %d and %d times, want once each", n, m)
			}
		})
	}
}

// TestWatchSharedAndReleased: leases under one context share one watch,
// which is released when the last of them settles and reused by the
// next context; an expiry releases its watch too, without reusing it;
// and a context that cannot expire gets none.
func TestWatchSharedAndReleased(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{DegradedGrace: -1})
	defer c.Close()
	e := c.JobEvaluator("j", []byte(`{}`))
	drop := func(float64, error) {}

	e.RunAsync(context.Background(), core.Point{"x": 1}, drop)
	if got := watchCount(c); got != 0 {
		t.Errorf("a context.Background lease armed %d watches", got)
	}
	c.CancelJob("j")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 3; i++ {
		e.RunAsync(ctx, core.Point{"x": float64(i)}, drop)
	}
	c.mu.Lock()
	shared := c.fleet.watches[ctx.Done()]
	n := 0
	for l := shared.head; l != nil; l = l.wnext {
		n++
	}
	c.mu.Unlock()
	if got := watchCount(c); got != 1 || n != 3 {
		t.Fatalf("three leases under one context: %d watches, %d leases under it; want 1 and 3", got, n)
	}
	if c.CancelJob("j") != 3 || watchCount(c) != 0 {
		t.Fatalf("the job's cancel left %d watches", watchCount(c))
	}
	c.mu.Lock()
	spare := len(c.fleet.spare) == 1 && c.fleet.spare[0] == shared && shared.done == nil && shared.stop == nil
	c.mu.Unlock()
	if !spare {
		t.Fatal("a released watch was not stopped, cleared and kept for reuse")
	}

	other, expire := context.WithCancel(context.Background())
	expired := newTally()
	e.RunAsync(other, core.Point{"x": 9}, expired.done)
	c.mu.Lock()
	reused := c.fleet.watches[other.Done()] == shared
	c.mu.Unlock()
	if !reused {
		t.Error("the next context did not reuse the released watch")
	}
	expire()
	if out := expired.await(t, "the expired lease"); out.err != context.Canceled {
		t.Fatalf("the expired lease resolved with %v", out.err)
	}
	c.mu.Lock()
	left, spares := len(c.fleet.watches), len(c.fleet.spare)
	c.mu.Unlock()
	if left != 0 || spares != 0 {
		t.Errorf("after an expiry: %d watches armed, %d spare; want 0 and 0 (a fired watch is not reused)", left, spares)
	}

	// Under a context that has already expired, a lease resolves at once
	// and is never queued.
	dead := newTally()
	e.RunAsync(other, core.Point{"x": 10}, dead.done)
	select {
	case out := <-dead.out:
		if out.err != context.Canceled {
			t.Errorf("a lease under an expired context resolved with %v", out.err)
		}
	default:
		t.Error("a lease under an expired context did not resolve inside RunAsync")
	}
	if st := c.Status(); st.QueueDepth != 0 || watchCount(c) != 0 {
		t.Errorf("a lease under an expired context left %d queued and %d watches", st.QueueDepth, watchCount(c))
	}
}

// TestRunAsyncAllocations pins what a warm RunAsync costs the
// coordinator. Under a context other leases are running under — a
// batch's, a calibration's — it allocates the lease and its wire point,
// and no watch. Under a context of its own — a resilience attempt's, a
// blocking Run's — it adds what context.AfterFunc allocates on a fresh
// context and nothing of its own: the watch is a released one, reused.
func TestRunAsyncAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	c := NewCoordinator(CoordinatorConfig{DegradedGrace: -1})
	defer c.Close()
	p := core.Point{"x0": 0.5, "x1": -1e-7, "x2": 3}
	drop := func(float64, error) {}

	// The budget, measured the same way.
	var wire map[string]WireFloat
	point := testing.AllocsPerRun(100, func() {
		wire = make(map[string]WireFloat, len(p))
		for k, v := range p {
			wire[k] = WireFloat(v)
		}
	})
	fresh := func(n int) []context.Context {
		ctxs := make([]context.Context, n)
		for i := range ctxs {
			var cancel context.CancelFunc
			ctxs[i], cancel = context.WithCancel(context.Background())
			t.Cleanup(cancel)
		}
		return ctxs
	}
	fire := func() {}
	measured, i := fresh(101), 0
	afterFunc := testing.AllocsPerRun(100, func() {
		context.AfterFunc(measured[i], fire)()
		i++
	})

	// Grow the queue once, so the measured submissions append in place.
	warm := c.JobEvaluator("warm", []byte(`{}`))
	for i := 0; i < 256; i++ {
		warm.RunAsync(context.Background(), p, drop)
	}
	c.CancelJob("warm")

	e := c.JobEvaluator("j", []byte(`{}`))
	batch, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.RunAsync(batch, p, drop) // arms the batch's watch
	if got := testing.AllocsPerRun(100, func() { e.RunAsync(batch, p, drop) }); got > 1+point {
		t.Errorf("a warm RunAsync under a shared context costs %.0f allocations, want at most %.0f (the lease) + %.0f (its wire point)", got, 1.0, point)
	}
	c.CancelJob("j")

	own, j := fresh(101), 0
	if got := testing.AllocsPerRun(100, func() {
		e.RunAsync(own[j], p, drop)
		j++
		c.CancelJob("j") // settles the lease: its watch is stopped and kept
	}); got > 1+point+afterFunc {
		t.Errorf("a warm RunAsync under a context of its own costs %.0f allocations, want at most 1 (the lease) + %.0f (its wire point) + %.0f (context.AfterFunc's)", got, point, afterFunc)
	}
}
