package dist

import (
	"context"
	"strings"
	"testing"
	"time"
)

// These tests drive heartbeat expiry and lease deadlines entirely
// through a ManualClock: the configured intervals are seconds to
// minutes, but no test goroutine ever sleeps them in real time.

// drainFrames discards inbound frames so the peer's synchronous sends
// never block, and reports each received frame on got (if non-nil).
func drainFrames(conn Conn, got chan<- *Frame) {
	for {
		f, err := conn.Recv()
		if err != nil {
			return
		}
		if got != nil {
			select {
			case got <- f:
			default:
			}
		}
	}
}

// armedClock is a ManualClock that reports every timer armed on it, so
// a test can move time exactly when some loop is waiting for it to.
type armedClock struct {
	*ManualClock
	armed chan struct{} // capacity 1: tokens coalesce
}

func newArmedClock() *armedClock {
	return &armedClock{ManualClock: NewManualClock(time.Unix(0, 0)), armed: make(chan struct{}, 1)}
}

func (c *armedClock) After(d time.Duration) <-chan time.Time {
	ch := c.ManualClock.After(d)
	select {
	case c.armed <- struct{}{}:
	default:
	}
	return ch
}

// advanceUntil advances the clock by step each time a timer has been
// armed on it since the last advance, until stop accepts a value from
// events, which it returns. The worker's heartbeat loop re-arms its
// timer after every tick, so time keeps moving — one tick per advance,
// never ahead of the loops it drives — and nothing sleeps; the real-time
// guard only turns a hang into a failure.
func advanceUntil[T any](t *testing.T, c *armedClock, step time.Duration, events <-chan T, stop func(T) bool) T {
	t.Helper()
	guard := time.After(10 * time.Second)
	for {
		select {
		case ev := <-events:
			if stop(ev) {
				return ev
			}
		case <-c.armed:
			c.Advance(step)
		case <-guard:
			t.Fatalf("no accepted event after advancing to %s", c.Now().Sub(time.Unix(0, 0)))
		}
	}
}

// TestCoordinatorDeclaresSilentWorkerDead connects a fake worker that
// completes the handshake and then never sends another frame. Advancing
// the injected clock past HeartbeatTimeout must evict it.
func TestCoordinatorDeclaresSilentWorkerDead(t *testing.T) {
	mc := NewManualClock(time.Unix(0, 0))
	coord := NewCoordinator(CoordinatorConfig{
		Name:             "test",
		Clock:            mc,
		HeartbeatEvery:   2 * time.Second,
		HeartbeatTimeout: 10 * time.Second,
	})
	defer coord.Close()
	lb := NewLoopback()
	l, err := lb.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go coord.Serve(l)

	conn, err := lb.Dial("")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(&Frame{Type: TypeHello, Hello: &HelloMsg{Name: "mute", Capacity: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil { // coordinator hello
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() { // keep coordinator pings from blocking
		drainFrames(conn, nil)
		close(drained)
	}()

	wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer wcancel()
	if err := coord.WaitForWorkers(wctx, 1); err != nil {
		t.Fatal(err)
	}
	// The rule's timing is pinned in simulated time by
	// TestCoordinatorKeepsHeartbeatingWorkerAlive; this is its plumbing:
	// the timer goroutine sleeping on the injected clock, the tick, the
	// drop. Nothing here answers, so time may run as fast as it likes.
	waitFor(t, "the silent worker's eviction", func() bool {
		if coord.WorkerCount() == 0 {
			return true
		}
		mc.Advance(3 * time.Second)
		return false
	})
	<-drained // the drop action closed the connection under the fake worker's reader
}

// TestWorkerDropsSilentCoordinator checks the worker-side symmetry: a
// coordinator that stops sending frames is abandoned after
// HeartbeatTimeout on the injected clock, without real-time sleeping.
func TestWorkerDropsSilentCoordinator(t *testing.T) {
	mc := newArmedClock()
	w, err := NewWorker(WorkerConfig{
		Name:             "w",
		Factory:          sameFactory,
		Clock:            mc,
		HeartbeatEvery:   2 * time.Second,
		HeartbeatTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	lb := NewLoopback()
	l, err := lb.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serverCh := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		serverCh <- c
	}()
	conn, err := lb.Dial("")
	if err != nil {
		t.Fatal(err)
	}
	server := <-serverCh
	defer server.Close()

	runErr := make(chan error, 1)
	go func() { runErr <- w.Run(context.Background(), conn) }()

	if f, err := server.Recv(); err != nil || f.Type != TypeHello {
		t.Fatalf("worker hello: %+v, %v", f, err)
	}
	if err := server.Send(&Frame{Type: TypeHello, Hello: &HelloMsg{Name: "coord"}}); err != nil {
		t.Fatal(err)
	}
	go drainFrames(server, nil) // absorb worker heartbeats, send nothing

	if err := advanceUntil(t, mc, 3*time.Second, runErr, func(error) bool { return true }); err == nil {
		t.Fatal("worker Run returned nil for a silent coordinator, want an error")
	}
}

// TestLeaseDeadlineExpiresOnManualClock sends a lease with a deadline
// to a worker whose simulator hangs; advancing the injected clock past
// the deadline must produce a transient timeout result — no real-time
// sleeping, mirroring the local executor's abandonment semantics.
func TestLeaseDeadlineExpiresOnManualClock(t *testing.T) {
	mc := newArmedClock()
	evalStarted := make(chan struct{}, 1)
	w, err := NewWorker(WorkerConfig{
		Name:             "w",
		Factory:          stallingFactory(evalStarted),
		Clock:            mc,
		HeartbeatEvery:   2 * time.Second,
		HeartbeatTimeout: time.Hour, // the silent test coordinator must not get dropped
	})
	if err != nil {
		t.Fatal(err)
	}
	lb := NewLoopback()
	l, err := lb.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serverCh := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		serverCh <- c
	}()
	conn, err := lb.Dial("")
	if err != nil {
		t.Fatal(err)
	}
	server := <-serverCh
	defer server.Close()
	defer conn.Close()

	go w.Run(context.Background(), conn)
	if f, err := server.Recv(); err != nil || f.Type != TypeHello {
		t.Fatalf("worker hello: %+v, %v", f, err)
	}
	if err := server.Send(&Frame{Type: TypeHello, Hello: &HelloMsg{Name: "coord"}}); err != nil {
		t.Fatal(err)
	}
	frames := make(chan *Frame, 16)
	go drainFrames(server, frames)

	if err := server.Send(&Frame{Type: TypeLease, Lease: &LeaseMsg{
		ID: 1, Index: 0, Point: map[string]WireFloat{"x": 0.5}, TimeoutMS: 5000,
	}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-evalStarted:
	case <-time.After(5 * time.Second):
		t.Fatal("lease evaluation never started")
	}

	result := advanceUntil(t, mc, 3*time.Second, frames, func(f *Frame) bool { return f.Type == TypeResult }).Result
	if result.ID != 1 {
		t.Fatalf("result ID = %d, want 1", result.ID)
	}
	if result.Err == "" || !strings.Contains(result.Err, "timeout") {
		t.Fatalf("result err = %q, want a timeout", result.Err)
	}
	if result.Class != "transient" {
		t.Fatalf("result class = %q, want transient (timeouts are retryable)", result.Class)
	}
}
