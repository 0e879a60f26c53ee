package dist

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"simcal/internal/core"
	"simcal/internal/obs"
	"simcal/internal/opt"
)

var distTestSpace = core.Space{
	{Name: "x", Kind: core.Continuous, Min: 0, Max: 10},
	{Name: "y", Kind: core.Continuous, Min: 0, Max: 10},
}

// distTestSim is a deterministic pure-function loss: the same point
// yields bitwise the same loss in any process, which is what lets the
// tests demand bitwise-equal trajectories.
func distTestSim() core.Simulator {
	return core.Evaluator(func(_ context.Context, p core.Point) (float64, error) {
		dx, dy := p["x"]-3, p["y"]-7
		return dx*dx + dy*dy + math.Sin(p["x"]*p["y"])*0.25, nil
	})
}

var frozenTime = time.Unix(42, 0)

func frozenClock() time.Time { return frozenTime }

// runLocal runs a reference calibration fully in-process.
func runLocal(t *testing.T, workers, evals int, tracer *obs.Tracer) *core.Result {
	t.Helper()
	cal := core.Calibrator{
		Space:          distTestSpace,
		Simulator:      distTestSim(),
		Algorithm:      opt.Random{},
		MaxEvaluations: evals,
		Workers:        workers,
		Seed:           7,
		Clock:          frozenClock,
	}
	if tracer != nil {
		cal.Observer = core.NewObsObserver(nil, tracer)
	}
	res, err := cal.Run(context.Background())
	if err != nil {
		t.Fatalf("local calibration: %v", err)
	}
	return res
}

// cluster is one coordinator plus in-process workers over a transport.
type cluster struct {
	coord    *Coordinator
	listener Listener
	conns    []Conn // worker-side connections, closable to simulate kills
	wg       sync.WaitGroup
	cancel   context.CancelFunc
}

// startCluster wires n workers (each with capacity cap and its own
// factory) to a fresh coordinator over tr.
func startCluster(t *testing.T, tr Transport, addr string, cfg CoordinatorConfig, factories []Factory, capacity int) *cluster {
	t.Helper()
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{coord: NewCoordinator(cfg), listener: l}
	go c.coord.Serve(l)
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	for i, factory := range factories {
		w, err := NewWorker(WorkerConfig{Name: "test-worker", Capacity: capacity, Factory: factory})
		if err != nil {
			t.Fatal(err)
		}
		conn, err := tr.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c.conns = append(c.conns, conn)
		c.wg.Add(1)
		go func(i int) {
			defer c.wg.Done()
			// Errors are expected here: chaos tests kill connections, and
			// coordinator Close tears the rest down.
			_ = w.Run(ctx, conn)
		}(i)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := c.coord.WaitForWorkers(wctx, len(factories)); err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *cluster) stop() {
	c.coord.Close()
	c.listener.Close()
	c.cancel()
	c.wg.Wait()
}

// sameFactory serves the deterministic test simulator for any spec.
func sameFactory([]byte) (core.Simulator, error) { return distTestSim(), nil }

// assertSameHistory demands bitwise-equal calibration trajectories.
func assertSameHistory(t *testing.T, got, want *core.Result) {
	t.Helper()
	if len(got.History) != len(want.History) {
		t.Fatalf("history length = %d, want %d", len(got.History), len(want.History))
	}
	for i := range want.History {
		g, w := got.History[i], want.History[i]
		if len(g.Unit) != len(w.Unit) {
			t.Fatalf("sample %d: unit length %d != %d", i, len(g.Unit), len(w.Unit))
		}
		for j := range w.Unit {
			if math.Float64bits(g.Unit[j]) != math.Float64bits(w.Unit[j]) {
				t.Fatalf("sample %d: unit[%d] = %v, want %v", i, j, g.Unit[j], w.Unit[j])
			}
		}
		for k, wv := range w.Point {
			if math.Float64bits(g.Point[k]) != math.Float64bits(wv) {
				t.Fatalf("sample %d: point[%s] = %v, want %v", i, k, g.Point[k], wv)
			}
		}
		if math.Float64bits(g.Loss) != math.Float64bits(w.Loss) {
			t.Fatalf("sample %d: loss = %v, want %v", i, g.Loss, w.Loss)
		}
		if g.Elapsed != w.Elapsed {
			t.Fatalf("sample %d: elapsed = %v, want %v", i, g.Elapsed, w.Elapsed)
		}
	}
	if math.Float64bits(got.Best.Loss) != math.Float64bits(want.Best.Loss) {
		t.Fatalf("best loss = %v, want %v", got.Best.Loss, want.Best.Loss)
	}
}

// runDistributed runs a calibration whose evaluations are leased to the
// cluster's workers.
func runDistributed(t *testing.T, c *cluster, workers, evals int, tracer *obs.Tracer) *core.Result {
	t.Helper()
	cal := core.Calibrator{
		Space:          distTestSpace,
		Simulator:      c.coord.Evaluator([]byte(`{"test":true}`)),
		Algorithm:      opt.Random{},
		MaxEvaluations: evals,
		Workers:        workers,
		Seed:           7,
		Clock:          frozenClock,
	}
	if tracer != nil {
		cal.Observer = core.NewObsObserver(nil, tracer)
	}
	res, err := cal.Run(context.Background())
	if err != nil {
		t.Fatalf("distributed calibration: %v", err)
	}
	return res
}

// TestFleetTraceMatchesInProcess: a calibration's structured trace is
// byte-identical whether its evaluations ran in-process or on a loopback
// fleet — the fleet adds its own events to its own tracer, never to the
// calibration's. That the results are bitwise identical is
// internal/conformance's table.
func TestFleetTraceMatchesInProcess(t *testing.T) {
	const evals = 48
	trace := func(run func(*obs.Tracer)) []byte {
		var buf bytes.Buffer
		tracer := obs.NewTracer(&buf)
		tracer.SetClock(frozenClock)
		run(tracer)
		if err := tracer.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	local := trace(func(tr *obs.Tracer) { runLocal(t, 3, evals, tr) })
	c := startCluster(t, NewLoopback(), "", CoordinatorConfig{Name: "test"},
		[]Factory{sameFactory, sameFactory}, 2)
	defer c.stop()
	dist := trace(func(tr *obs.Tracer) { runDistributed(t, c, 3, evals, tr) })
	if !bytes.Equal(dist, local) {
		t.Errorf("distributed trace differs from local trace:\nlocal:\n%s\ndist:\n%s", local, dist)
	}
}

// stallingFactory returns a factory whose simulator parks every
// evaluation until its context dies, reporting each arrival on started.
// It stands in for a worker that is mid-evaluation when it gets killed.
func stallingFactory(started chan<- struct{}) Factory {
	return func([]byte) (core.Simulator, error) {
		return core.Evaluator(func(ctx context.Context, p core.Point) (float64, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return 0, ctx.Err()
		}), nil
	}
}

// TestWorkerKillMidBatchRequeuesAndStaysDeterministic is the chaos
// test: a worker holding in-flight leases is killed mid-batch; its
// leases must be re-queued to the surviving worker and the final
// trajectory must still be bitwise identical to the serial run.
func TestWorkerKillMidBatchRequeuesAndStaysDeterministic(t *testing.T) {
	const evals = 40
	serial := runLocal(t, 1, evals, nil)

	reg := obs.NewRegistry()
	started := make(chan struct{}, 1)
	// Worker 0 stalls every lease (it will be killed); worker 1 is
	// healthy and must finish the whole calibration.
	c := startCluster(t, NewLoopback(), "",
		CoordinatorConfig{Name: "chaos", Registry: reg},
		[]Factory{stallingFactory(started), sameFactory}, 2)
	defer c.stop()

	type calOut struct {
		res *core.Result
		err error
	}
	done := make(chan calOut, 1)
	go func() {
		cal := core.Calibrator{
			Space:          distTestSpace,
			Simulator:      c.coord.Evaluator([]byte(`{"test":true}`)),
			Algorithm:      opt.Random{},
			MaxEvaluations: evals,
			Workers:        4,
			Seed:           7,
			Clock:          frozenClock,
		}
		res, err := cal.Run(context.Background())
		done <- calOut{res, err}
	}()

	// Wait until the doomed worker holds at least one in-flight lease,
	// then kill its connection mid-batch.
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("no lease reached the stalling worker")
	}
	c.conns[0].Close()

	select {
	case out := <-done:
		if out.err != nil {
			t.Fatalf("calibration after worker kill: %v", out.err)
		}
		assertSameHistory(t, out.res, serial)
	case <-time.After(30 * time.Second):
		t.Fatal("calibration did not finish after the worker kill")
	}

	if got := reg.Counter("dist.leases_requeued").Value(); got == 0 {
		t.Error("dist.leases_requeued = 0, want > 0 after a mid-batch worker kill")
	}
	if got := reg.Counter("dist.workers_lost").Value(); got == 0 {
		t.Error("dist.workers_lost = 0, want > 0")
	}
	if got := reg.Counter("dist.frames_rx").Value(); got == 0 {
		t.Error("dist.frames_rx = 0, want > 0")
	}
}

// TestWorkerReconnectMidBatch kills a worker and connects a fresh
// replacement while the calibration is running: the trajectory must
// stay identical and the replacement must pick up work.
func TestWorkerReconnectMidBatch(t *testing.T) {
	const evals = 40
	serial := runLocal(t, 1, evals, nil)

	reg := obs.NewRegistry()
	started := make(chan struct{}, 1)
	lb := NewLoopback()
	c := startCluster(t, lb, "",
		CoordinatorConfig{Name: "chaos", Registry: reg},
		[]Factory{stallingFactory(started)}, 2)
	defer c.stop()

	done := make(chan *core.Result, 1)
	errCh := make(chan error, 1)
	go func() {
		cal := core.Calibrator{
			Space:          distTestSpace,
			Simulator:      c.coord.Evaluator([]byte(`{"test":true}`)),
			Algorithm:      opt.Random{},
			MaxEvaluations: evals,
			Workers:        4,
			Seed:           7,
			Clock:          frozenClock,
		}
		res, err := cal.Run(context.Background())
		if err != nil {
			errCh <- err
			return
		}
		done <- res
	}()

	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("no lease reached the stalling worker")
	}
	c.conns[0].Close() // kill

	// Reconnect: a healthy replacement dials the same coordinator.
	w, err := NewWorker(WorkerConfig{Name: "replacement", Capacity: 2, Factory: sameFactory})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := lb.Dial("")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w.Run(context.Background(), conn)
	}()
	defer wg.Wait()
	defer conn.Close()

	select {
	case res := <-done:
		assertSameHistory(t, res, serial)
	case err := <-errCh:
		t.Fatalf("calibration after reconnect: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("calibration did not finish after the reconnect")
	}
	if got := reg.Counter("dist.leases_requeued").Value(); got == 0 {
		t.Error("dist.leases_requeued = 0, want > 0")
	}
	if got := reg.Counter("dist.workers_connected").Value(); got < 2 {
		t.Errorf("dist.workers_connected = %d, want >= 2", got)
	}
}

// TestRemoteEvaluatorContextCancel checks a canceled evaluation returns
// promptly and its lease never reaches a worker once canceled.
func TestRemoteEvaluatorContextCancel(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Name: "test"})
	defer c.Close()
	ev := c.Evaluator([]byte(`{}`))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// No workers connected: the lease would wait forever without the
	// context check.
	if _, err := ev.Run(ctx, core.Point{"x": 1}); err != context.Canceled {
		t.Fatalf("Run on canceled context = %v, want context.Canceled", err)
	}
}

// TestCoordinatorCloseUnblocksPending checks Close resolves queued
// evaluations with ErrCoordinatorClosed instead of leaking goroutines.
func TestCoordinatorCloseUnblocksPending(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Name: "test"})
	ev := c.Evaluator([]byte(`{}`))
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			_, err := ev.Run(context.Background(), core.Point{"x": 1})
			errs <- err
		}()
	}
	waitFor(t, "the leases to enqueue", func() bool { return c.Status().QueueDepth == 3 })
	c.Close()
	for i := 0; i < 3; i++ {
		select {
		case err := <-errs:
			if err != ErrCoordinatorClosed {
				t.Fatalf("pending Run = %v, want ErrCoordinatorClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("pending Run not unblocked by Close")
		}
	}
	if _, err := ev.Run(context.Background(), core.Point{"x": 1}); err != ErrCoordinatorClosed {
		t.Fatalf("Run after Close = %v, want ErrCoordinatorClosed", err)
	}
}
