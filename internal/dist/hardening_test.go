package dist

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simcal/internal/core"
	"simcal/internal/obs"
	"simcal/internal/opt"
)

// grabTransport records the most recently dialed connection so tests
// can cut a worker's live connection (the worker survives; the
// "socket" dies), simulating a network-level kill.
type grabTransport struct {
	inner Transport
	mu    sync.Mutex
	last  Conn
	dials int
	// dialed, when non-nil, gets a token after every successful dial
	// (capacity 1: a waiter re-checks dialCount, so tokens may coalesce).
	dialed chan struct{}
}

func (g *grabTransport) Listen(addr string) (Listener, error) { return g.inner.Listen(addr) }

func (g *grabTransport) Dial(addr string) (Conn, error) {
	c, err := g.inner.Dial(addr)
	if err == nil {
		g.mu.Lock()
		g.last = c
		g.dials++
		g.mu.Unlock()
		if g.dialed != nil {
			select {
			case g.dialed <- struct{}{}:
			default:
			}
		}
	}
	return c, err
}

// awaitDials blocks until n connections have been dialed.
func (g *grabTransport) awaitDials(t *testing.T, n int, otherwise string) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for g.dialCount() < n {
		select {
		case <-g.dialed:
		case <-timeout:
			t.Fatal(otherwise)
		}
	}
}

func (g *grabTransport) dialCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.dials
}

func (g *grabTransport) killLast() {
	g.mu.Lock()
	c := g.last
	g.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// TestWorkerSessionResumeMidLease cuts a resuming worker's connection
// twice — once mid-evaluation, once between leases — and demands the
// calibration finish bitwise identical to serial with both sessions
// resumed and no duplicate accounting.
func TestWorkerSessionResumeMidLease(t *testing.T) {
	const evals = 40
	serial := runLocal(t, 1, evals, nil)

	reg := obs.NewRegistry()
	lb := NewLoopback()
	coord := NewCoordinator(CoordinatorConfig{Name: "resume", Registry: reg})
	defer coord.Close()
	ln, err := lb.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go coord.Serve(ln)

	// The first evaluation stalls until its connection dies (the
	// mid-lease kill target); every later evaluation — including the
	// requeued first lease — runs the real simulator. The last quarter
	// of the budget additionally waits for the second resume, so the
	// calibration cannot finish before both kills have been survived
	// (and counted), however fast the host runs the rest.
	var stalledOnce atomic.Bool
	var begun atomic.Int64
	started := make(chan struct{}, 1)
	secondResume := make(chan struct{})
	gt := &grabTransport{inner: lb, dialed: make(chan struct{}, 1)}
	resumedEval := make(chan struct{}, 1) // an evaluation finished after the first redial
	real := distTestSim()
	factory := func([]byte) (core.Simulator, error) {
		return core.Evaluator(func(ctx context.Context, p core.Point) (float64, error) {
			if stalledOnce.CompareAndSwap(false, true) {
				select {
				case started <- struct{}{}:
				default:
				}
				<-ctx.Done()
				return 0, ctx.Err()
			}
			if begun.Add(1) > evals*3/4 {
				select {
				case <-secondResume:
				case <-ctx.Done():
					return 0, ctx.Err()
				}
			}
			loss, err := real.Run(ctx, p)
			if err == nil && gt.dialCount() >= 2 {
				select {
				case resumedEval <- struct{}{}:
				default:
				}
			}
			return loss, err
		}), nil
	}

	w, err := NewWorker(WorkerConfig{Name: "resumer", Capacity: 2, Factory: factory, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w.RunSession(wctx, gt, "", SessionConfig{
			Resume:          true,
			MaxDialAttempts: 50,
			BaseDelay:       5 * time.Millisecond,
			MaxDelay:        50 * time.Millisecond,
		})
	}()
	stop := func() {
		coord.Close()
		ln.Close()
		wcancel()
		gt.killLast()
		wg.Wait()
	}
	defer stop()

	type calOut struct {
		res *core.Result
		err error
	}
	done := make(chan calOut, 1)
	go func() {
		cal := core.Calibrator{
			Space:          distTestSpace,
			Simulator:      coord.Evaluator([]byte(`{"test":true}`)),
			Algorithm:      opt.Random{},
			MaxEvaluations: evals,
			Workers:        4,
			Seed:           7,
			Clock:          frozenClock,
		}
		res, err := cal.Run(context.Background())
		done <- calOut{res, err}
	}()

	// Kill 1: mid-lease, while an evaluation is provably in flight.
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("no lease reached the stalling simulator")
	}
	gt.killLast()

	// Kill 2: after the worker has redialed (a second connection
	// exists) and an evaluation has completed since — the resumed
	// session is live and the kill lands between leases.
	gt.awaitDials(t, 2, "worker never redialed after the first kill")
	select {
	case <-resumedEval:
	case <-time.After(10 * time.Second):
		t.Fatal("resumed session never served an evaluation")
	}
	gt.killLast()

	// The worker counts a resume before it redials, so its third
	// connection proves the second resume happened; only then may the
	// held evaluations — and with them the calibration — complete.
	gt.awaitDials(t, 3, "worker never redialed after the second kill")
	close(secondResume)

	select {
	case out := <-done:
		if out.err != nil {
			t.Fatalf("calibration across session kills: %v", out.err)
		}
		assertSameHistory(t, out.res, serial)
	case <-time.After(30 * time.Second):
		t.Fatal("calibration did not finish after the session kills")
	}
	if got := reg.Counter("worker.sessions_resumed").Value(); got < 2 {
		t.Errorf("worker.sessions_resumed = %d, want >= 2", got)
	}
	if got := reg.Counter("dist.leases_requeued").Value(); got == 0 {
		t.Error("dist.leases_requeued = 0, want > 0")
	}
}

// TestPoisonLeaseQuarantinedAndEvaluatedLocally feeds the fleet a
// poison point that kills its worker's connection on every delivery.
// After MaxRequeues requeues the coordinator must quarantine the lease,
// evaluate it locally, and still finish bitwise identical to serial.
func TestPoisonLeaseQuarantinedAndEvaluatedLocally(t *testing.T) {
	const evals = 24
	serial := runLocal(t, 1, evals, nil)

	reg := obs.NewRegistry()
	var trace bytes.Buffer
	tracer := obs.NewTracer(&trace)
	lb := NewLoopback()
	coord := NewCoordinator(CoordinatorConfig{
		Name:         "quarantine",
		Registry:     reg,
		Tracer:       tracer,
		MaxRequeues:  2,
		LocalFactory: sameFactory,
	})
	defer coord.Close()
	ln, err := lb.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go coord.Serve(ln)

	gt := &grabTransport{inner: lb}
	// The first point delivered becomes the poison: every delivery of
	// it cuts the worker's connection, so only quarantine plus the
	// local fallback can resolve its lease.
	var mu sync.Mutex
	var poison core.Point
	real := distTestSim()
	factory := func([]byte) (core.Simulator, error) {
		return core.Evaluator(func(ctx context.Context, p core.Point) (float64, error) {
			mu.Lock()
			if poison == nil {
				poison = core.Point{}
				for k, v := range p {
					poison[k] = v
				}
			}
			isPoison := len(p) == len(poison)
			for k, v := range poison {
				if math.Float64bits(p[k]) != math.Float64bits(v) {
					isPoison = false
				}
			}
			mu.Unlock()
			if isPoison {
				gt.killLast()
				<-ctx.Done()
				return 0, ctx.Err()
			}
			return real.Run(ctx, p)
		}), nil
	}

	w, err := NewWorker(WorkerConfig{Name: "victim", Capacity: 1, Factory: factory})
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w.RunSession(wctx, gt, "", SessionConfig{
			Resume:          true,
			MaxDialAttempts: 50,
			BaseDelay:       5 * time.Millisecond,
			MaxDelay:        50 * time.Millisecond,
		})
	}()
	stop := func() {
		coord.Close()
		ln.Close()
		wcancel()
		gt.killLast()
		wg.Wait()
	}
	defer stop()

	type calOut struct {
		res *core.Result
		err error
	}
	done := make(chan calOut, 1)
	go func() {
		cal := core.Calibrator{
			Space:          distTestSpace,
			Simulator:      coord.Evaluator([]byte(`{"test":true}`)),
			Algorithm:      opt.Random{},
			MaxEvaluations: evals,
			Workers:        2,
			Seed:           7,
			Clock:          frozenClock,
		}
		res, err := cal.Run(context.Background())
		done <- calOut{res, err}
	}()

	select {
	case out := <-done:
		if out.err != nil {
			t.Fatalf("calibration with poison lease: %v", out.err)
		}
		assertSameHistory(t, out.res, serial)
	case <-time.After(60 * time.Second):
		t.Fatal("calibration did not finish; the poison lease was never quarantined")
	}

	if got := reg.Counter("dist.leases_quarantined").Value(); got != 1 {
		t.Errorf("dist.leases_quarantined = %d, want 1", got)
	}
	if got := reg.Counter("dist.local_evals").Value(); got < 1 {
		t.Errorf("dist.local_evals = %d, want >= 1", got)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), obs.EventDistLeaseQuarantined) {
		t.Error("trace lacks a dist_lease_quarantined event")
	}
}

// TestFleetEmptyDegradationDrainsLocallyAndReabsorbs runs a
// calibration with no workers at all: after DegradedGrace the
// coordinator must drain the whole queue through its local evaluator,
// bitwise identical to serial, then exit degraded mode the moment a
// worker finally registers.
func TestFleetEmptyDegradationDrainsLocallyAndReabsorbs(t *testing.T) {
	const evals = 24
	serial := runLocal(t, 1, evals, nil)

	reg := obs.NewRegistry()
	var trace bytes.Buffer
	tracer := obs.NewTracer(&trace)
	lb := NewLoopback()
	coord := NewCoordinator(CoordinatorConfig{
		Name:          "degraded",
		Registry:      reg,
		Tracer:        tracer,
		LocalFactory:  sameFactory,
		DegradedGrace: 50 * time.Millisecond,
	})
	defer coord.Close()
	ln, err := lb.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go coord.Serve(ln)

	cal := core.Calibrator{
		Space:          distTestSpace,
		Simulator:      coord.Evaluator([]byte(`{"test":true}`)),
		Algorithm:      opt.Random{},
		MaxEvaluations: evals,
		Workers:        3,
		Seed:           7,
		Clock:          frozenClock,
	}
	res, err := cal.Run(context.Background())
	if err != nil {
		t.Fatalf("degraded calibration: %v", err)
	}
	assertSameHistory(t, res, serial)
	if got := reg.Counter("dist.local_evals").Value(); got != evals {
		t.Errorf("dist.local_evals = %d, want %d (every eval drained locally)", got, evals)
	}
	if !coord.Status().Degraded {
		t.Error("Status().Degraded = false during fleet-empty drain")
	}

	// Re-absorption: a worker registers, degraded mode ends, and the
	// next calibration is served by the fleet.
	w, err := NewWorker(WorkerConfig{Name: "late", Capacity: 2, Factory: sameFactory})
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
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := coord.WaitForWorkers(wctx, 1); err != nil {
		t.Fatal(err)
	}
	if coord.Status().Degraded {
		t.Fatal("coordinator still degraded after a worker registered")
	}
	dispatchedBefore := reg.Counter("dist.leases_dispatched").Value()
	res2, err := cal.Run(context.Background())
	if err != nil {
		t.Fatalf("post-reabsorption calibration: %v", err)
	}
	assertSameHistory(t, res2, serial)
	if got := reg.Counter("dist.leases_dispatched").Value(); got <= dispatchedBefore {
		t.Errorf("dist.leases_dispatched stayed at %d; the re-absorbed worker served nothing", got)
	}

	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	s := trace.String()
	if !strings.Contains(s, `"state":"entered"`) || !strings.Contains(s, `"state":"exited"`) {
		t.Errorf("trace lacks degradation entered/exited events:\n%s", s)
	}
}

// fakeWorkerConn performs the hello handshake by hand so protocol-level
// tests can script exact frame sequences.
func fakeWorkerConn(t *testing.T, tr Transport, addr, name string, capacity int) Conn {
	t.Helper()
	conn, err := tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&Frame{Type: TypeHello, Hello: &HelloMsg{Name: name, Capacity: capacity}}); err != nil {
		t.Fatal(err)
	}
	f, err := conn.Recv()
	if err != nil || f.Type != TypeHello {
		t.Fatalf("handshake: %v, %v", f, err)
	}
	return conn
}

// recvLease reads frames until a lease arrives (skipping heartbeats).
func recvLease(t *testing.T, conn Conn) *LeaseMsg {
	t.Helper()
	for {
		f, err := conn.Recv()
		if err != nil {
			t.Fatalf("waiting for lease: %v", err)
		}
		if f.Type == TypeLease {
			return f.Lease
		}
	}
}

// TestRedeliveryRecoversIgnoredLease scripts a worker that ignores the
// first delivery of a lease (as if the frame had been dropped by a
// lossy transport): with ResendAfter set the coordinator must redeliver
// it with a bumped attempt, and answering the redelivery resolves the
// evaluation.
func TestRedeliveryRecoversIgnoredLease(t *testing.T) {
	reg := obs.NewRegistry()
	lb := NewLoopback()
	coord := NewCoordinator(CoordinatorConfig{
		Name:        "redeliver",
		Registry:    reg,
		ResendAfter: 50 * time.Millisecond,
	})
	defer coord.Close()
	ln, err := lb.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go coord.Serve(ln)
	conn := fakeWorkerConn(t, lb, "", "forgetful", 1)
	defer conn.Close()

	ev := coord.Evaluator([]byte(`{}`))
	lossCh := make(chan float64, 1)
	go func() {
		loss, err := ev.Run(context.Background(), core.Point{"x": 2})
		if err != nil {
			t.Error(err)
		}
		lossCh <- loss
	}()

	first := recvLease(t, conn)
	if first.Attempt != 0 {
		t.Errorf("first delivery attempt = %d, want 0", first.Attempt)
	}
	// Ignore it. The redelivery must arrive with the same ID and a
	// bumped attempt counter.
	second := recvLease(t, conn)
	if second.ID != first.ID {
		t.Fatalf("redelivered lease ID = %d, want %d", second.ID, first.ID)
	}
	if second.Attempt < 1 {
		t.Errorf("redelivery attempt = %d, want >= 1", second.Attempt)
	}
	res := &ResultMsg{ID: second.ID, Index: second.Index, Loss: 2.5, Attempt: second.Attempt}
	if err := conn.Send(&Frame{Type: TypeResult, Result: res}); err != nil {
		t.Fatal(err)
	}
	select {
	case loss := <-lossCh:
		if loss != 2.5 {
			t.Errorf("loss = %v, want 2.5", loss)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("evaluation never resolved after redelivery")
	}
	if got := reg.Counter("dist.leases_redelivered").Value(); got == 0 {
		t.Error("dist.leases_redelivered = 0, want > 0")
	}
}

// TestWorkerDedupesRedeliveredLease checks the worker side of the
// idempotency contract: a redelivered lease the worker already finished
// is answered from its result cache, not re-evaluated.
func TestWorkerDedupesRedeliveredLease(t *testing.T) {
	reg := obs.NewRegistry()
	var evalCount atomic.Int64
	factory := func([]byte) (core.Simulator, error) {
		return core.Evaluator(func(_ context.Context, p core.Point) (float64, error) {
			evalCount.Add(1)
			return p["x"] * 2, nil
		}), nil
	}
	w, err := NewWorker(WorkerConfig{Name: "dedupe", Capacity: 1, Factory: factory, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	lb := NewLoopback()
	ln, err := lb.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	wconn, err := lb.Dial("")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w.Run(context.Background(), wconn)
	}()
	defer wg.Wait()
	defer wconn.Close()

	var coordSide Conn
	select {
	case coordSide = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never dialed")
	}
	defer coordSide.Close()
	if f, err := coordSide.Recv(); err != nil || f.Type != TypeHello {
		t.Fatalf("worker hello: %v, %v", f, err)
	}
	if err := coordSide.Send(&Frame{Type: TypeHello, Hello: &HelloMsg{Name: "coord"}}); err != nil {
		t.Fatal(err)
	}

	lease := &LeaseMsg{ID: 9, Index: 0, Spec: []byte(`{}`), Point: map[string]WireFloat{"x": 3}, Attempt: 0}
	if err := coordSide.Send(&Frame{Type: TypeLease, Lease: lease}); err != nil {
		t.Fatal(err)
	}
	recvResult := func() *ResultMsg {
		for {
			f, err := coordSide.Recv()
			if err != nil {
				t.Fatalf("waiting for result: %v", err)
			}
			if f.Type == TypeResult {
				return f.Result
			}
		}
	}
	r1 := recvResult()
	if r1.ID != 9 || float64(r1.Loss) != 6 {
		t.Fatalf("result = %+v, want ID 9 loss 6", r1)
	}
	// Redeliver the finished lease with a bumped attempt: the worker
	// must answer from its cache, echoing the new attempt, without
	// running the simulator again.
	lease.Attempt = 1
	if err := coordSide.Send(&Frame{Type: TypeLease, Lease: lease}); err != nil {
		t.Fatal(err)
	}
	r2 := recvResult()
	if r2.ID != 9 || float64(r2.Loss) != 6 || r2.Attempt != 1 {
		t.Fatalf("cached re-answer = %+v, want ID 9 loss 6 attempt 1", r2)
	}
	if r1.StartUnixNS == 0 || r2.StartUnixNS != r1.StartUnixNS || r2.DurNS != r1.DurNS {
		t.Errorf("cached re-answer timing = (%d, %d), want the evaluation's own (%d, %d)", r2.StartUnixNS, r2.DurNS, r1.StartUnixNS, r1.DurNS)
	}
	if got := evalCount.Load(); got != 1 {
		t.Errorf("simulator ran %d times, want 1", got)
	}
	if got := reg.Counter("worker.duplicate_leases").Value(); got != 1 {
		t.Errorf("worker.duplicate_leases = %d, want 1", got)
	}
}
