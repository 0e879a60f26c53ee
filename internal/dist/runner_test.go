package dist

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simcal/internal/core"
)

// scriptConn is a worker's connection with the coordinator's end played
// by the test: Recv hands the worker the frames the test queues, decoded
// from their payload bytes by a connection's decoder (into the lease
// frames the worker hands back, as a connection does), and Send encodes
// every frame the worker sends, as a connection does, and reports the
// ID of each result.
type scriptConn struct {
	in      chan []byte // payloads for Recv
	dec     decoder
	results chan uint64 // the ID of every result sent

	sendMu sync.Mutex
	out    []byte

	closeOnce sync.Once
	closed    chan struct{}
}

func newScriptConn() *scriptConn {
	return &scriptConn{
		in: make(chan []byte), dec: decoder{names: make(map[string]string), leases: make(chan *Frame, leaseSpares)},
		results: make(chan uint64, 64), closed: make(chan struct{}),
	}
}

func (c *scriptConn) Send(f *Frame) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	buf, err := appendWireFrame(c.out[:0], f)
	c.out = buf
	if err == nil && f.Type == TypeResult {
		c.results <- f.Result.ID
	}
	return err
}

func (c *scriptConn) Recv() (*Frame, error) {
	select {
	case p := <-c.in:
		return c.dec.decode(p)
	case <-c.closed:
		return nil, io.EOF
	}
}

func (c *scriptConn) recycleLease(f *Frame) { c.dec.recycleLease(f) }

func (c *scriptConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

// queue hands the worker one frame.
func (c *scriptConn) queue(f *Frame) { c.in <- appendFrame(nil, f) }

// leaseBytes is the payload of lease id on the point (x, y).
func leaseBytes(id uint64, x, y float64) []byte {
	return appendFrame(nil, &Frame{Type: TypeLease, Lease: &LeaseMsg{
		ID: id, Index: id, Spec: []byte(`{"sim":"runner"}`),
		Point: map[string]WireFloat{"x": WireFloat(x), "y": WireFloat(y)},
	}})
}

// startScripted runs a worker of the given capacity on sim over a
// scriptConn, past the handshake, with a manual clock so no heartbeat
// ever fires. It returns the connection and a channel closed with Run's
// return.
func startScripted(t *testing.T, ctx context.Context, capacity int, sim core.Simulator) (*scriptConn, <-chan struct{}) {
	t.Helper()
	w, err := NewWorker(WorkerConfig{
		Name: "runner", Capacity: capacity, Clock: NewManualClock(frozenTime),
		Factory: func([]byte) (core.Simulator, error) { return sim, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	conn := newScriptConn()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx, conn)
	}()
	conn.queue(&Frame{Type: TypeHello, Hello: &HelloMsg{Name: "test"}})
	return conn, done
}

// awaitRun fails the test if Run does not return: a real-time deadline
// that only turns a hang into a failure.
func awaitRun(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("Run did not return %s", what)
	}
}

// TestWorkerLeaseAllocations pins what one lease costs a warm worker,
// from its payload to its sent result: the core.Point the simulator is
// called with — no decoded lease (it is decoded into a frame a runner
// handed back), no goroutine, no result message, no histogram dump.
func TestWorkerLeaseAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	conn, done := startScripted(t, ctx, 1, core.Evaluator(func(_ context.Context, p core.Point) (float64, error) {
		return p["x"] + p["y"], nil
	}))
	payload := leaseBytes(1, 0.5, -1e-7)
	cycle := func() {
		conn.in <- payload
		<-conn.results
	}
	for i := 0; i < 20; i++ {
		cycle() // warm the runners, the session's telemetry and the names
	}
	got := testing.AllocsPerRun(200, cycle)

	// The budget, measured the same way: a core.Point of the lease's size.
	var pt core.Point
	point := testing.AllocsPerRun(100, func() {
		pt = make(core.Point, 2)
		pt["x"], pt["y"] = 0.5, -1e-7
	})
	if got > point {
		t.Errorf("a warm lease costs the worker %.0f allocations, want at most %.0f (its core.Point)", got, point)
	}
	cancel()
	conn.Close()
	awaitRun(t, done, "once its session ended")
}

// TestWorkerStartsEveryLeaseAtOnce: leases past the worker's capacity —
// the coordinator never sends them, but nothing on the worker queues
// them either — all run at once. Each evaluation waits at a barrier
// until every one has entered it.
func TestWorkerStartsEveryLeaseAtOnce(t *testing.T) {
	const capacity = 3
	const n = 2 * capacity
	var entered atomic.Int64
	barrier := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	conn, done := startScripted(t, ctx, capacity, core.Evaluator(func(context.Context, core.Point) (float64, error) {
		if entered.Add(1) == n {
			close(barrier)
		}
		<-barrier
		return 1, nil
	}))
	for i := uint64(1); i <= n; i++ {
		conn.in <- leaseBytes(i, float64(i), 0)
	}
	seen := make(map[uint64]bool)
	for len(seen) < n {
		select {
		case id := <-conn.results:
			seen[id] = true
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d leases answered, %d entered the simulator: not every lease was running at once", len(seen), n, entered.Load())
		}
	}
	cancel()
	conn.Close()
	awaitRun(t, done, "once its session ended")
}

// TestWorkerRunWaitsForEveryRunner: once the session ends — its context
// canceled, its connection closed — Run returns only after every runner
// has: the evaluations still running hold it until they return, and an
// idle runner that did not exit would hang it.
func TestWorkerRunWaitsForEveryRunner(t *testing.T) {
	const capacity = 2
	var running, finished atomic.Int64
	canceled := make(chan struct{}, capacity)
	hold := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	conn, done := startScripted(t, ctx, capacity, core.Evaluator(func(ctx context.Context, p core.Point) (float64, error) {
		if p["x"] == 0 {
			return 0, nil // leaves its runner idle
		}
		running.Add(1)
		<-ctx.Done()
		canceled <- struct{}{}
		<-hold
		finished.Add(1)
		return 0, ctx.Err()
	}))
	conn.in <- leaseBytes(1, 0, 0)
	<-conn.results
	conn.in <- leaseBytes(2, 1, 0)
	conn.in <- leaseBytes(3, 2, 0)
	cancel()
	conn.Close()
	for i := 0; i < capacity; i++ {
		<-canceled
	}
	select {
	case <-done:
		t.Fatal("Run returned while two evaluations were still running")
	default:
	}
	close(hold)
	awaitRun(t, done, "after its evaluations did: a runner did not exit")
	if r, f := running.Load(), finished.Load(); r != capacity || f != capacity {
		t.Errorf("%d evaluations started and %d finished before Run returned, want %d and %d", r, f, capacity, capacity)
	}
}
