package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simcal/internal/core"
	"simcal/internal/obs"
	"simcal/internal/opt"
	"simcal/internal/resilience"
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

// resuming is the session of a worker whose connection a test cuts: it
// redials and resumes.
var resuming = SessionConfig{Resume: true, MaxDialAttempts: 50, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}

// TestWorkerSessionResumeMidLease cuts a resuming worker's connection
// twice — once mid-evaluation, once between leases — and demands the
// calibration finish bitwise identical to serial with both sessions
// resumed and no duplicate accounting.
func TestWorkerSessionResumeMidLease(t *testing.T) {
	const evals = 40
	serial := runLocal(t, 1, evals, nil)

	reg := obs.NewRegistry()
	lb := NewLoopback()
	srv, err := Serve(lb, "", CoordinatorConfig{Name: "resume", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	coord := srv.Coord

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

	workers, err := StartWorkers(gt, srv.Addr(), 1, WorkerConfig{Name: "resumer", Capacity: 2, Factory: factory, Registry: reg}, resuming)
	if err != nil {
		t.Fatal(err)
	}
	defer workers.Close()

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
		if err := core.CheckIdentical(out.res, serial); err != nil {
			t.Fatal(err)
		}
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
// After maxRequeues requeues the coordinator must quarantine the lease,
// evaluate it locally, and still finish bitwise identical to serial.
func TestPoisonLeaseQuarantinedAndEvaluatedLocally(t *testing.T) {
	const evals = 24
	serial := runLocal(t, 1, evals, nil)

	reg := obs.NewRegistry()
	var trace bytes.Buffer
	tracer := obs.NewTracer(&trace)
	lb := NewLoopback()
	srv, err := Serve(lb, "", CoordinatorConfig{
		Name:         "quarantine",
		Registry:     reg,
		Tracer:       tracer,
		LocalFactory: sameFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	coord := srv.Coord

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

	workers, err := StartWorkers(gt, srv.Addr(), 1, WorkerConfig{Name: "victim", Capacity: 1, Factory: factory}, resuming)
	if err != nil {
		t.Fatal(err)
	}
	defer workers.Close()

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
		if err := core.CheckIdentical(out.res, serial); err != nil {
			t.Fatal(err)
		}
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
	srv, err := Serve(lb, "", CoordinatorConfig{
		Name:          "degraded",
		Registry:      reg,
		Tracer:        tracer,
		LocalFactory:  sameFactory,
		DegradedGrace: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	coord := srv.Coord

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
	if err := core.CheckIdentical(res, serial); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("dist.local_evals").Value(); got != evals {
		t.Errorf("dist.local_evals = %d, want %d (every eval drained locally)", got, evals)
	}
	if !coord.Status().Degraded {
		t.Error("Status().Degraded = false during fleet-empty drain")
	}

	// Re-absorption: a worker registers, degraded mode ends, and the
	// next calibration is served by the fleet.
	late, err := StartWorkers(lb, srv.Addr(), 1, WorkerConfig{Name: "late", Capacity: 2, Factory: sameFactory}, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
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
	if err := core.CheckIdentical(res2, serial); err != nil {
		t.Fatal(err)
	}
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

// corruptOnce is a worker transport whose first connection flips a
// payload byte of the worker's second frame (the first after hello), so
// the coordinator reads a frame that fails its checksum and drops the
// worker. Every later connection is clean.
type corruptOnce struct {
	*Loopback
	mu     sync.Mutex
	dials  int
	dialed chan int
}

func (c *corruptOnce) Dial(addr string) (Conn, error) {
	raw, err := c.DialStream(addr)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.dials++
	n := c.dials
	c.mu.Unlock()
	c.dialed <- n
	if n == 1 {
		raw = &flipWrite{Conn: raw, at: 2}
	}
	return NewFrameConn(raw), nil
}

// flipWrite corrupts the last byte of its at-th Write (one frame each).
type flipWrite struct {
	net.Conn
	writes, at int
}

func (f *flipWrite) Write(b []byte) (int, error) {
	if f.writes++; f.writes == f.at {
		b = append([]byte(nil), b...)
		b[len(b)-1] ^= 0xff
	}
	return f.Conn.Write(b)
}

// TestDroppedWorkerRedials: a coordinator that drops a worker for a
// corrupt frame closes the connection without a bye frame, and the
// worker — whose session resumes — redials at once instead of exiting.
// The backoff base is an hour, so the test can only pass if the redial
// needs no backoff step. Only the coordinator's bye ends the session.
func TestDroppedWorkerRedials(t *testing.T) {
	lb := NewLoopback()
	srv, err := Serve(lb, "", CoordinatorConfig{Name: "dropper"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	coord := srv.Coord

	tr := &corruptOnce{Loopback: lb, dialed: make(chan int, 4)}
	workers, err := StartWorkers(tr, srv.Addr(), 1, WorkerConfig{Name: "dropped", Capacity: 2, Factory: sameFactory},
		SessionConfig{Resume: true, MaxDialAttempts: 2, BaseDelay: time.Hour, MaxDelay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer workers.Close()
	session := make(chan error, 1)
	go func() { session <- workers.Wait() }()

	cal := core.Calibrator{
		Space:          distTestSpace,
		Simulator:      coord.Evaluator([]byte(`{"test":true}`)),
		Algorithm:      opt.Random{},
		MaxEvaluations: 12,
		Workers:        2,
		Seed:           7,
		Clock:          frozenClock,
	}
	done := make(chan error, 1)
	go func() {
		_, err := cal.Run(context.Background())
		done <- err
	}()
	for want := 1; want <= 2; want++ {
		select {
		case n := <-tr.dialed:
			if n != want {
				t.Fatalf("dial %d, want %d", n, want)
			}
		case err := <-session:
			t.Fatalf("the worker's session ended (%v) after the coordinator dropped it, instead of redialing", err)
		case <-time.After(10 * time.Second):
			t.Fatalf("no dial %d within 10s", want)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if s := coord.Status(); s.Degraded || len(s.Workers) != 1 {
		t.Errorf("after the redial: degraded %v with %d workers, want the worker serving", s.Degraded, len(s.Workers))
	}
	coord.Close()
	if err := <-session; err != nil {
		t.Errorf("the bye frame ended the session with %v, want nil", err)
	}
}

// TestUnsendableLeaseFailsAlone runs a lease whose spec no worker can
// build and one whose spec is too large for a frame on a shared fleet.
// Each fails its own evaluation promptly with a deterministic error,
// the fleet keeps every worker, and a good evaluation on it then
// succeeds.
func TestUnsendableLeaseFailsAlone(t *testing.T) {
	factory := func(spec []byte) (core.Simulator, error) {
		if !json.Valid(spec) {
			return nil, errors.New("spec is not JSON")
		}
		return distTestSim(), nil
	}
	c := startCluster(t, NewLoopback(), "", CoordinatorConfig{}, []Factory{factory, factory}, 2)
	capacity := c.coord.Capacity()
	pt := core.Point{"x": 1, "y": 2}
	run := func(spec []byte) (float64, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return c.coord.Evaluator(spec).Run(ctx, pt)
	}
	oversize := []byte(`"` + strings.Repeat("x", MaxFramePayload) + `"`)
	for _, spec := range [][]byte{[]byte("not json"), oversize} {
		_, err := run(spec)
		if err == nil || resilience.Classify(err) != resilience.Deterministic {
			t.Fatalf("%.20s… spec: err = %v, want a deterministic failure", spec, err)
		}
		if got := c.coord.Capacity(); got != capacity {
			t.Fatalf("%.20s… spec: capacity %d after its failure, want %d", spec, got, capacity)
		}
	}
	want, _ := distTestSim().Run(context.Background(), pt)
	if loss, err := run([]byte(`{"test":true}`)); err != nil || loss != want {
		t.Fatalf("good spec on the same fleet: %v, %v; want %v", loss, err, want)
	}
}
