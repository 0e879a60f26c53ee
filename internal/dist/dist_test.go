package dist

import (
	"bytes"
	"context"
	"math"
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
	srv     *Server
	coord   *Coordinator
	workers []*Workers // one worker each; closing one kills it
}

// startCluster wires one worker per factory, each of the given
// capacity, to a fresh coordinator over tr. It stops with the test.
func startCluster(t *testing.T, tr Transport, addr string, cfg CoordinatorConfig, factories []Factory, capacity int) *cluster {
	t.Helper()
	srv, err := Serve(tr, addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{srv: srv, coord: srv.Coord}
	t.Cleanup(c.stop)
	for _, factory := range factories {
		ws, err := StartWorkers(tr, srv.Addr(), 1, WorkerConfig{Name: "test-worker", Capacity: capacity, Factory: factory}, SessionConfig{})
		if err != nil {
			t.Fatal(err)
		}
		c.workers = append(c.workers, ws)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := c.coord.WaitForWorkers(wctx, len(factories)); err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *cluster) stop() {
	c.srv.Close()
	for _, ws := range c.workers {
		ws.Close()
	}
}

// sameFactory serves the deterministic test simulator for any spec.
func sameFactory([]byte) (core.Simulator, error) { return distTestSim(), nil }

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
	c.workers[0].Close()

	select {
	case out := <-done:
		if out.err != nil {
			t.Fatalf("calibration after worker kill: %v", out.err)
		}
		if err := core.CheckIdentical(out.res, serial); err != nil {
			t.Fatal(err)
		}
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
	c.workers[0].Close() // kill

	// Reconnect: a healthy replacement dials the same coordinator.
	replacement, err := StartWorkers(lb, c.srv.Addr(), 1, WorkerConfig{Name: "replacement", Capacity: 2, Factory: sameFactory}, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer replacement.Close()

	select {
	case res := <-done:
		if err := core.CheckIdentical(res, serial); err != nil {
			t.Fatal(err)
		}
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
