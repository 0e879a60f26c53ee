package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simcal/internal/core"
	"simcal/internal/obs"
	"simcal/internal/opt"
)

// delayFactory serves the deterministic test simulator with a
// pseudo-random per-evaluation sleep (its own source, independent of
// the calibration RNG) and accumulates worker busy time into busyNS.
// The sleep scrambles completion order without touching loss values —
// timing must never feed the search.
func delayFactory(seed int64, max time.Duration, busyNS *atomic.Int64) Factory {
	real := distTestSim()
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func([]byte) (core.Simulator, error) {
		return core.Evaluator(func(ctx context.Context, p core.Point) (float64, error) {
			mu.Lock()
			d := time.Duration(rng.Int63n(int64(max)))
			mu.Unlock()
			start := time.Now()
			defer func() {
				if busyNS != nil {
					busyNS.Add(int64(time.Since(start)))
				}
			}()
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return 0, ctx.Err()
			}
			return real.Run(ctx, p)
		}), nil
	}
}

// fixedDelayFactory sleeps exactly d per evaluation — the straggler
// profile for the idle-time acceptance test.
func fixedDelayFactory(d time.Duration, busyNS *atomic.Int64) Factory {
	real := distTestSim()
	return func([]byte) (core.Simulator, error) {
		return core.Evaluator(func(ctx context.Context, p core.Point) (float64, error) {
			start := time.Now()
			defer func() {
				if busyNS != nil {
					busyNS.Add(int64(time.Since(start)))
				}
			}()
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return 0, ctx.Err()
			}
			return real.Run(ctx, p)
		}), nil
	}
}

// TestRunAsyncDeliversResult: the callback path of the remote evaluator
// delivers a worker's loss exactly once, and it matches the simulator's
// own output for the same point.
func TestRunAsyncDeliversResult(t *testing.T) {
	c := startCluster(t, NewLoopback(), "", CoordinatorConfig{Name: "async"},
		[]Factory{sameFactory}, 2)
	defer c.stop()
	ev := c.coord.Evaluator([]byte(`{"test":true}`))

	pt := core.Point{"x": 2.5, "y": 6.5}
	want, err := distTestSim().Run(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		loss float64
		err  error
	}
	var calls atomic.Int64
	done := make(chan outcome, 2)
	ev.RunAsync(context.Background(), pt, func(loss float64, err error) {
		calls.Add(1)
		done <- outcome{loss, err}
	})
	select {
	case out := <-done:
		if out.err != nil {
			t.Fatalf("RunAsync delivered error %v", out.err)
		}
		if out.loss != want {
			t.Fatalf("RunAsync delivered loss %v, simulator computes %v", out.loss, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunAsync never delivered")
	}
	// Once nothing is queued or in flight, nothing is left that could
	// call back a second time.
	waitFor(t, "the fleet to go idle", func() bool {
		st := c.coord.Status()
		return st.QueueDepth == 0 && len(st.Workers) == 1 && st.Workers[0].Inflight == 0
	})
	if n := calls.Load(); n != 1 {
		t.Fatalf("done callback ran %d times, want exactly once", n)
	}
}

// TestRunAsyncContextCancel: canceling the submission's context
// delivers ctx.Err() through the callback even while the lease is
// still running on a worker.
func TestRunAsyncContextCancel(t *testing.T) {
	stall := func([]byte) (core.Simulator, error) {
		return core.Evaluator(func(ctx context.Context, _ core.Point) (float64, error) {
			<-ctx.Done()
			return 0, ctx.Err()
		}), nil
	}
	c := startCluster(t, NewLoopback(), "", CoordinatorConfig{Name: "async"},
		[]Factory{stall}, 1)
	defer c.stop()
	ev := c.coord.Evaluator([]byte(`{"test":true}`))

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	ev.RunAsync(ctx, core.Point{"x": 1, "y": 1}, func(_ float64, err error) {
		errCh <- err
	})
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled RunAsync delivered %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled RunAsync never delivered")
	}
}

// TestRunAsyncCoordinatorClosed: closing the coordinator delivers
// ErrCoordinatorClosed to queued asynchronous leases instead of
// leaving their callbacks hanging.
func TestRunAsyncCoordinatorClosed(t *testing.T) {
	lb := NewLoopback()
	coord := NewCoordinator(CoordinatorConfig{Name: "async"})
	ln, err := lb.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go coord.Serve(ln)
	ev := coord.Evaluator([]byte(`{"test":true}`))

	errCh := make(chan error, 1)
	// No workers connected: the lease sits in the queue until Close.
	ev.RunAsync(context.Background(), core.Point{"x": 1, "y": 1}, func(_ float64, err error) {
		errCh <- err
	})
	coord.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrCoordinatorClosed) {
			t.Fatalf("RunAsync after Close delivered %v, want ErrCoordinatorClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("closed coordinator never delivered to the queued lease")
	}
}

// TestAsyncFleetReplayBitwise is the distributed replay property: an
// async-bo calibration over a fleet with randomized per-evaluation
// delays records its completion order; re-running with that order
// forced — locally, no fleet at all — reproduces the run bitwise.
// Checked across three fleet sizes.
func TestAsyncFleetReplayBitwise(t *testing.T) {
	const evals = 36
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			factories := make([]Factory, workers)
			for i := range factories {
				factories[i] = delayFactory(int64(31*i+7), 3*time.Millisecond, nil)
			}
			c := startCluster(t, NewLoopback(), "", CoordinatorConfig{Name: "async"}, factories, 2)
			defer c.stop()

			alg := opt.NewAsyncBO()
			alg.InitSamples = 8
			cal := core.Calibrator{
				Space:          distTestSpace,
				Simulator:      c.coord.Evaluator([]byte(`{"test":true}`)),
				Algorithm:      alg,
				MaxEvaluations: evals,
				Workers:        2 * workers,
				Seed:           7,
				Clock:          frozenClock,
			}
			res, err := cal.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			order := alg.CompletionOrder()
			if len(order) != evals {
				t.Fatalf("recorded order has %d entries, want %d", len(order), evals)
			}

			replay := opt.NewAsyncBO()
			replay.InitSamples = 8
			replay.Replay = order
			rcal := core.Calibrator{
				Space:          distTestSpace,
				Simulator:      distTestSim(),
				Algorithm:      replay,
				MaxEvaluations: evals,
				Workers:        2 * workers,
				Seed:           7,
				Clock:          frozenClock,
			}
			rres, err := rcal.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			assertSameHistory(t, rres, res)
		})
	}
}

// killSignal is a core.Observer that closes a channel after n
// completed evaluations — the trigger for the mid-run worker kill.
type killSignal struct {
	n    int64
	seen atomic.Int64
	ch   chan struct{}
	once sync.Once
}

func (k *killSignal) CalibrationStarted(core.RunInfo) {}
func (k *killSignal) BatchProposed(int)               {}
func (k *killSignal) EvalCompleted(core.Sample, time.Duration, time.Duration) {
	if k.seen.Add(1) == k.n {
		k.once.Do(func() { close(k.ch) })
	}
}
func (k *killSignal) IncumbentImproved(core.Sample)                       {}
func (k *killSignal) SurrogateFitted(int, time.Duration)                  {}
func (k *killSignal) AcquisitionSolved(int, time.Duration, time.Duration) {}
func (k *killSignal) CalibrationFinished(*core.Result)                    {}

// TestAsyncReplayBitwiseAfterWorkerKill: killing a worker mid-run
// requeues its in-flight leases onto the survivors; the run completes,
// and its recorded order still replays bitwise — chaos affects timing,
// never values.
func TestAsyncReplayBitwiseAfterWorkerKill(t *testing.T) {
	const evals = 40
	factories := []Factory{
		delayFactory(3, 3*time.Millisecond, nil),
		delayFactory(5, 3*time.Millisecond, nil),
		delayFactory(9, 3*time.Millisecond, nil),
	}
	c := startCluster(t, NewLoopback(), "", CoordinatorConfig{Name: "chaos"}, factories, 2)
	defer c.stop()

	kill := &killSignal{n: 10, ch: make(chan struct{})}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-kill.ch
		c.conns[0].Close() // mid-run kill: its leases requeue elsewhere
	}()

	alg := opt.NewAsyncBO()
	alg.InitSamples = 8
	cal := core.Calibrator{
		Space:          distTestSpace,
		Simulator:      c.coord.Evaluator([]byte(`{"test":true}`)),
		Algorithm:      alg,
		MaxEvaluations: evals,
		Workers:        6,
		Seed:           7,
		Clock:          frozenClock,
		Observer:       kill,
	}
	res, err := cal.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	order := alg.CompletionOrder()
	if len(order) != evals {
		t.Fatalf("recorded order has %d entries after the kill, want %d", len(order), evals)
	}

	replay := opt.NewAsyncBO()
	replay.InitSamples = 8
	replay.Replay = order
	rcal := core.Calibrator{
		Space:          distTestSpace,
		Simulator:      distTestSim(),
		Algorithm:      replay,
		MaxEvaluations: evals,
		Workers:        6,
		Seed:           7,
		Clock:          frozenClock,
	}
	rres, err := rcal.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSameHistory(t, rres, res)
}

// TestAsyncTraceReplayOrder: the dist_async_completion trace events
// reconstruct exactly the algorithm's completion order — the simcal
// -async-replay pipeline (trace in, bitwise rerun out) rests on this.
func TestAsyncTraceReplayOrder(t *testing.T) {
	const evals = 24
	c := startCluster(t, NewLoopback(), "", CoordinatorConfig{Name: "trace"},
		[]Factory{delayFactory(11, 2*time.Millisecond, nil), delayFactory(13, 2*time.Millisecond, nil)}, 2)
	defer c.stop()

	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	tracer.SetClock(frozenClock)
	alg := opt.NewAsyncBO()
	alg.InitSamples = 8
	cal := core.Calibrator{
		Space:          distTestSpace,
		Simulator:      c.coord.Evaluator([]byte(`{"test":true}`)),
		Algorithm:      alg,
		MaxEvaluations: evals,
		Workers:        4,
		Seed:           7,
		Clock:          frozenClock,
		Observer:       core.NewObsObserver(nil, tracer),
	}
	res, err := cal.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	order, err := obs.ReplayAsyncOrder(recs)
	if err != nil {
		t.Fatal(err)
	}
	want := alg.CompletionOrder()
	if len(order) != len(want) {
		t.Fatalf("trace yields %d order entries, algorithm recorded %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("trace order[%d] = %d, algorithm recorded %d", i, order[i], want[i])
		}
	}

	// And the trace-derived order drives a bitwise local replay.
	replay := opt.NewAsyncBO()
	replay.InitSamples = 8
	replay.Replay = order
	rcal := core.Calibrator{
		Space:          distTestSpace,
		Simulator:      distTestSim(),
		Algorithm:      replay,
		MaxEvaluations: evals,
		Workers:        4,
		Seed:           7,
		Clock:          frozenClock,
	}
	rres, err := rcal.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSameHistory(t, rres, res)
}

// TestAsyncStragglerIdleBelowBatch is the acceptance benchmark from the
// paper's worker-aware argument: on a 4-worker fleet with one
// 2×-latency straggler, batch BO pays a barrier tax (fast workers idle
// while the straggler finishes each batch) that asynchronous proposals
// avoid. Async must reach comparable loss with strictly less worker
// idle time.
func TestAsyncStragglerIdleBelowBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based acceptance test")
	}
	if raceEnabled {
		t.Skip("race instrumentation slows surrogate fits ~15x, invalidating the idle-time comparison")
	}
	const (
		evals    = 48
		capacity = 4
		fast     = 5 * time.Millisecond
		slow     = 10 * time.Millisecond // the 2× straggler
	)
	run := func(alg core.Algorithm, reg *obs.Registry) (*core.Result, time.Duration) {
		var busy atomic.Int64
		factories := []Factory{
			fixedDelayFactory(slow, &busy), // straggler
			fixedDelayFactory(fast, &busy),
			fixedDelayFactory(fast, &busy),
			fixedDelayFactory(fast, &busy),
		}
		c := startCluster(t, NewLoopback(), "", CoordinatorConfig{Name: "straggler"}, factories, 1)
		defer c.stop()
		cal := core.Calibrator{
			Space:          distTestSpace,
			Simulator:      c.coord.Evaluator([]byte(`{"test":true}`)),
			Algorithm:      alg,
			MaxEvaluations: evals,
			Workers:        capacity,
			Seed:           7,
		}
		if reg != nil {
			cal.Observer = core.NewObsObserver(reg, nil)
		}
		start := time.Now()
		res, err := cal.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		wall := time.Since(start)
		idle := capacity*wall - time.Duration(busy.Load())
		return res, idle
	}

	batchRes, batchIdle := run(opt.NewBOGP(), nil)
	reg := obs.NewRegistry()
	asyncAlg := opt.NewAsyncBO()
	asyncRes, asyncIdle := run(asyncAlg, reg)

	t.Logf("batch: best=%.4f idle=%v; async: best=%.4f idle=%v",
		batchRes.Best.Loss, batchIdle, asyncRes.Best.Loss, asyncIdle)
	if asyncIdle >= batchIdle {
		t.Errorf("async worker idle %v is not below the batch barrier's %v", asyncIdle, batchIdle)
	}
	// Comparable final quality: the liar-conditioned single proposals
	// must not trade the barrier win for a materially worse optimum.
	if asyncRes.Best.Loss > batchRes.Best.Loss+0.5 {
		t.Errorf("async best loss %v is far above batch best %v", asyncRes.Best.Loss, batchRes.Best.Loss)
	}
	// The worker-idle metric is exported for the same phenomenon.
	snap := reg.Snapshot()
	if snap.Counters["opt.async_proposals"] != int64(evals) {
		t.Errorf("opt.async_proposals = %d, want %d", snap.Counters["opt.async_proposals"], evals)
	}
	if idleNS := snap.Counters["opt.async_worker_idle_ns"]; idleNS < 0 || time.Duration(idleNS) > batchIdle {
		t.Errorf("opt.async_worker_idle_ns = %v, want within [0, batch idle %v)", time.Duration(idleNS), batchIdle)
	}
}
